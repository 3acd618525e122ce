// Command themis-lint runs the repo's static-analysis suite (internal/lint)
// over the given package patterns and prints findings in file:line:col form,
// with source→sink paths on indented continuation lines for the dataflow
// analyzers. It exits 1 when any finding is reported, so the suite gates
// `make verify`.
//
// Usage:
//
//	themis-lint [-C moddir] [-sarif file] [-escapes] [patterns...]
//
// Patterns default to ./internal/... ./cmd/... and follow go-tool spelling
// (a directory, or dir/... for the subtree).
//
//	-sarif file  also write SARIF 2.1.0 (taint paths become codeFlows)
//	-escapes     list every active //lint:* escape with its justification
package main

import (
	"flag"
	"fmt"
	"os"

	"themis/internal/lint"
)

func main() {
	modRoot := flag.String("C", ".", "module root directory (containing go.mod)")
	sarifPath := flag.String("sarif", "", "write SARIF 2.1.0 report to this file")
	listEscapes := flag.Bool("escapes", false, "list active //lint:* escape directives and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: themis-lint [-C moddir] [-sarif file] [-escapes] [patterns...]\n")
		flag.PrintDefaults()
		fmt.Fprintln(flag.CommandLine.Output(), "\nanalyzers:")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"internal/...", "cmd/..."}
	}

	if *listEscapes {
		escapes, err := lint.ListEscapes(*modRoot, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "themis-lint:", err)
			os.Exit(2)
		}
		for _, e := range escapes {
			just := e.Justification
			if just == "" {
				just = "(no justification)"
			}
			fmt.Printf("%s:%d: //lint:%s — %s\n", e.File, e.Line, e.Directive, just)
		}
		fmt.Fprintf(os.Stderr, "themis-lint: %d active escape(s)\n", len(escapes))
		return
	}

	diags, err := lint.Run(*modRoot, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "themis-lint:", err)
		os.Exit(2)
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "themis-lint:", err)
			os.Exit(2)
		}
		err = lint.WriteSARIF(f, *modRoot, diags)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "themis-lint:", err)
			os.Exit(2)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "themis-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

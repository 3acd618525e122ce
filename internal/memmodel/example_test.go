package memmodel_test

import (
	"fmt"

	"themis/internal/memmodel"
)

// ExamplePaperDefaults reproduces the paper's §4 worked example.
func ExamplePaperDefaults() {
	m := memmodel.PaperDefaults()
	fmt.Printf("%d B per QP, %d B total\n", m.PerQPBytes(), m.TotalBytes())
	// Output: 120 B per QP, 192512 B total
}

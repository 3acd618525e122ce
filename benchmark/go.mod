module themis/benchmark

go 1.22

require themis v0.0.0

replace themis => ../

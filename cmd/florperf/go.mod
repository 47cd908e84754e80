module flor.dev/flor/cmd/florperf

go 1.24

require flor.dev/flor v0.0.0

replace flor.dev/flor => ../..

module dfpr/benchmark

go 1.24

require dfpr v0.0.0

replace dfpr => ../

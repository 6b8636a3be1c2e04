module nnexus/benchmarks

go 1.22

require nnexus v0.0.0

replace nnexus => ../

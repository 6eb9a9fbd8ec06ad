module distbayes/benchmarks

go 1.24

require distbayes v0.0.0

replace distbayes => ../

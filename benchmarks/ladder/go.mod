module floatfl/benchmarks/ladder

go 1.22

require floatfl v0.0.0

replace floatfl => ../..

module ganglia/benchmark

go 1.22

require ganglia v0.0.0

replace ganglia => ../

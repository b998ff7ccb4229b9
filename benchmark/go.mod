module cycloid/benchmark

go 1.23

require cycloid v0.0.0

replace cycloid => ../

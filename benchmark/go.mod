module ermia/benchmark

go 1.22

require ermia v0.0.0

replace ermia => ../

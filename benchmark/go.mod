module websnap/benchmark

go 1.22

require websnap v0.0.0

replace websnap => ../

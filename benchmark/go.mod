module asynctp/benchmark

go 1.22

require asynctp v0.0.0

replace asynctp => ../

module autowebcache/benchmark

go 1.23

require autowebcache v0.0.0

replace autowebcache => ../

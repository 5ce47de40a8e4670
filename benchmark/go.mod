// The benchmark is a module of its own inside the repository: its import
// path keeps the lemp/ prefix, so it may import lemp/internal/..., and the
// program it measures is the source one directory up.
module lemp/benchmark

go 1.24

require lemp v0.0.0

replace lemp => ../

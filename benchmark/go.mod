// The benchmark is a module of its own so it builds from its own
// directory with its own build file; the path keeps the anydb/ prefix
// so it may import anydb/internal/... for the per-layer probes.
module anydb/benchmark

go 1.24

require anydb v0.0.0-00010101000000-000000000000

replace anydb => ../

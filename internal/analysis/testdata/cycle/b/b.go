// Package b imports nothing, but its in-package test imports a, which
// imports b: a cycle for `go build` only if importers saw test files.
package b

// Options has meaningful zero values.
type Options struct {
	Tol float64
}

// DefaultOptions returns the default options.
func DefaultOptions() Options {
	return Options{Tol: 1e-9}
}

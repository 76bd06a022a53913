// Package a imports b, and its in-package test imports b too.
package a

import "cycle/b"

// Tol reads b's options from an empty literal, which zerosentinel
// flags through the non-test variant of b that a imports.
func Tol() float64 {
	return b.Options{}.Tol
}

package b

import (
	"testing"

	"cycle/a"
)

func TestA(t *testing.T) {
	_ = a.Tol()
}

package a

import (
	"testing"

	"cycle/b"
)

func TestTol(t *testing.T) {
	_ = b.DefaultOptions()
}

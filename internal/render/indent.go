package render

import (
	"encoding/json"
	"sync"
)

// MarshalIndent returns the bytes of json.MarshalIndent(v, "", "  ")
// and, when v cannot be encoded, json.Marshal's error. The server
// encodes its other indented bodies with it: validation and dynamic
// reports, and job status; JSON writes designs.
//
// It indents json.Marshal's compact output in a plain byte loop: that
// output is valid and holds no whitespace outside strings, so tracking
// string state and depth is enough, and encoding/json's validating
// scanner would only read the bytes a second time. The loop writes
// into a pooled buffer and the result is copied out at its exact
// size, with one spare byte so that appending a trailing newline does
// not reallocate; encoding/json reserves twice the compact length, and
// a cached body would keep that slack alive.
func MarshalIndent(v any) ([]byte, error) {
	src, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	pooled := indentBuffers.Get().(*[]byte)
	buf := (*pooled)[:0]
	if cap(buf) < 2*len(src) {
		// Indenting stays below twice the compact length for the
		// documents served, so the loop rarely regrows the buffer.
		buf = make([]byte, 0, 2*len(src))
	}
	buf = appendIndent(buf, src)
	out := exactCopy(buf)
	*pooled = buf
	indentBuffers.Put(pooled)
	return out, nil
}

// exactCopy returns a copy of buf with one spare byte of capacity, so
// that appending a trailing newline does not reallocate.
func exactCopy(buf []byte) []byte {
	out := make([]byte, len(buf), len(buf)+1)
	copy(out, buf)
	return out
}

// indentBuffers holds the buffers MarshalIndent and JSON write into.
var indentBuffers = sync.Pool{New: func() any { return new([]byte) }}

// indent is the run of spaces appendNewline copies from; deeper levels
// take several copies.
const indent = "                                "

// appendIndent appends src, the compact output of json.Marshal, to dst
// with json.Indent's layout: a newline and two spaces per level after
// each opening bracket and comma and before each closing bracket, a
// space after each colon, and empty objects and arrays on one line.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); {
		switch c := src[i]; c {
		case '"':
			end := stringEnd(src, i) + 1
			dst = append(dst, src[i:end]...)
			i = end
		case '{', '[':
			// '}' and ']' follow '{' and '[' by two code points; an
			// empty object or array stays on one line.
			if src[i+1] == c+2 {
				dst = append(dst, c, c+2)
				i += 2
			} else {
				depth++
				dst = appendNewline(append(dst, c), depth)
				i++
			}
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
			i++
		case ',':
			dst = appendNewline(append(dst, c), depth)
			i++
		case ':':
			dst = append(dst, ':', ' ')
			i++
		default:
			// A number, true, false or null runs to the next
			// delimiter.
			end := i + 1
			for end < len(src) && !isDelim(src[end]) {
				end++
			}
			dst = append(dst, src[i:end]...)
			i = end
		}
	}
	return dst
}

// stringEnd returns the index of the quote closing the string whose
// opening quote is src[i].
func stringEnd(src []byte, i int) int {
	for i++; src[i] != '"'; i++ {
		if src[i] == '\\' {
			i++
		}
	}
	return i
}

// isDelim reports whether c ends a number or literal in compact JSON.
func isDelim(c byte) bool {
	return c == ',' || c == '}' || c == ']'
}

// appendNewline appends a newline and the indent of depth levels.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; n -= len(indent) {
		dst = append(dst, indent[:min(n, len(indent))]...)
	}
	return dst
}

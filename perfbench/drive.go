package main

// In-process dispatch and the closed-loop driver. Each operation is a
// real *http.Request with a real body, handed to the server's handler
// on the calling goroutine: no sockets, so the figures measure the
// repository's code rather than the loopback stack.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// recorder is the minimal http.ResponseWriter the driver needs: the
// status, the two headers the checks read, and a private copy of the
// body. Given the body it should receive (want), it compares instead
// of copying: a cache hit's reply then costs the client no allocation.
type recorder struct {
	header http.Header
	status int
	body   []byte
	want   []byte
	n      int  // bytes received in compare mode
	differ bool // compare mode saw a byte that differs from want
}

func newRecorder(want []byte) *recorder {
	return &recorder{header: make(http.Header), want: want}
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.want == nil {
		w.body = append(w.body, p...)
		return len(p), nil
	}
	if rest := w.want[min(w.n, len(w.want)):]; len(rest) < len(p) || !bytes.Equal(rest[:len(p)], p) {
		w.differ = true
	}
	w.n += len(p)
	return len(p), nil
}

// matched reports whether compare mode received exactly want.
func (w *recorder) matched() bool { return !w.differ && w.n == len(w.want) }

// result is one completed operation. latency runs from sending the
// first request to seeing the final response; for a search job that
// is submit → terminal state.
type result struct {
	status   int
	hit      bool   // X-Cache: hit
	selected string // X-OOC-Model-Selected
	body     []byte
	latency  time.Duration
	// compared is set when the reply was compared with its key's
	// checked body instead of copied; same reports that they matched.
	compared, same bool
}

// client sends ops to one handler. A nil tracer sends untraced.
type client struct {
	h  http.Handler
	tr *tracer
	// expect, on serve_warm's timed phase, is the checked body of each
	// catalogue key; replies are compared with it as they arrive.
	expect [][]byte
}

// send dispatches one request, recording a handler span when traced.
func (c *client) send(method, target string, body, want []byte, t *opTrace) *recorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	w := newRecorder(want)
	sp := t.begin("handler", -1)
	c.h.ServeHTTP(w, req)
	t.end(sp)
	return w
}

// do runs one op to completion.
func (c *client) do(o op, t *opTrace) result {
	start := time.Now()
	var want []byte
	if c.expect != nil && o.key >= 0 {
		want = c.expect[o.key]
	}
	w := c.send(http.MethodPost, o.path, o.body, want, t)
	if o.kind != opSearch || w.status != http.StatusAccepted {
		return result{
			status:   w.status,
			hit:      w.header.Get("X-Cache") == "hit",
			selected: w.header.Get("X-OOC-Model-Selected"),
			body:     w.body,
			latency:  time.Since(start),
			compared: want != nil,
			same:     want != nil && w.matched(),
		}
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.body, &sub); err != nil || sub.ID == "" {
		return result{status: 0, body: w.body, latency: time.Since(start)}
	}
	for {
		time.Sleep(pollEvery)
		w = c.send(http.MethodGet, "/v1/jobs/"+sub.ID, nil, nil, t)
		if w.status != http.StatusOK || terminal(w.body) {
			return result{status: w.status, body: w.body, latency: time.Since(start)}
		}
	}
}

// terminal reports whether a job status body is in a final state. It
// scans for the state field instead of decoding the whole status, so
// polling stays cheap next to the job it waits for.
func terminal(body []byte) bool {
	state := jsonString(body, "state")
	return state == "succeeded" || state == "failed" || state == "canceled"
}

// jsonString returns the first string value of "key" in a JSON
// object, or "" when there is none.
func jsonString(body []byte, key string) string {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return ""
	}
	rest := bytes.TrimLeft(body[i+len(key)+3:], " \t\r\n")
	if len(rest) == 0 || rest[0] != '"' {
		return ""
	}
	end := bytes.IndexByte(rest[1:], '"')
	if end < 0 {
		return ""
	}
	return string(rest[1 : 1+end])
}

// runOps drives ops through the handler with a closed loop of
// `clients` goroutines: each takes the next op only after its previous
// op completed. It returns the results in op order and the wall time
// from the first send to the last response.
func (c *client) runOps(ops []op, firstID int) ([]result, time.Duration) {
	res := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t := c.tr.newOp(firstID + i)
				res[i] = c.do(ops[i], t)
				if t != nil {
					c.tr.replay(ops[i], res[i], t)
				}
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// describe names an op for failure messages.
func describe(o op) string {
	return fmt.Sprintf("%s (%d-byte body)", o.path, len(o.body))
}

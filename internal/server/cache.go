package server

import (
	"crypto/sha256"
	"net/http"

	"ooc/internal/cachesnap"
	"ooc/internal/core"
	"ooc/internal/flight"
)

// response is one fully rendered HTTP response: everything the cache
// must retain to replay a request without re-solving.
type response struct {
	status      int
	contentType string
	body        []byte
}

// newRespCache returns the response cache, keyed on canonicalized spec
// bytes (plus endpoint/model/rendering, assembled by the caller) and
// bounded by capacity completed entries; the admission controller
// bounds the in-flight ones. Only a 200 with no error stays cached, so
// the next request recomputes anything else with a fresh budget.
func newRespCache(capacity int) *flight.Cache[string, response] {
	return flight.New[string](capacity, flight.Counters{
		Hits:       "server.cache.hits",
		Misses:     "server.cache.misses",
		JoinAborts: "server.cache.join_aborts",
	}, "server: waiting for identical in-flight request", func(resp response, err error) bool {
		return err == nil && resp.status == http.StatusOK
	})
}

// parsedSpec is what specio.Parse and specio.Canonical made of one
// request body: the spec and its canonical cache-key bytes.
type parsedSpec struct {
	spec core.Spec
	key  []byte
}

// newSpecMemo returns the parsed-spec memo, an LRU of capacity
// entries. It remembers the parsedSpec of a body whose response the
// cache already served, so a repeat of those exact bytes skips both
// parse steps, which are pure functions of the body. The handlers Put
// an entry only after a response-cache hit answered the body with a
// 200, so traffic that never repeats stores nothing; the memo never
// fills through Do and never counts.
//
// Entries are keyed on the body's SHA-256 digest, not on the body:
// json.Unmarshal ignores unknown fields, so a body of up to
// maxSpecBytes can parse to a small spec, and an entry holding the raw
// bytes could cost a megabyte. Entries are shared read-only.
func newSpecMemo(capacity int) *flight.Cache[[sha256.Size]byte, parsedSpec] {
	return flight.New[[sha256.Size]byte, parsedSpec](capacity, flight.Counters{}, "", nil)
}

// exportResponses returns every completed entry of response cache c as
// snapshot entries, most recently used first, so an importer can
// reconstruct the LRU recency order. In-flight slots are never
// serialized (their responses do not exist yet), and only 200s rest in
// the cache at all.
func exportResponses(c *flight.Cache[string, response]) []cachesnap.ResponseEntry {
	entries := make([]cachesnap.ResponseEntry, 0, c.Len())
	c.Range(func(key string, resp response) {
		entries = append(entries, cachesnap.ResponseEntry{
			Key:         key,
			Status:      resp.status,
			ContentType: resp.contentType,
			Body:        resp.body,
		})
	})
	return entries
}

// importResponses appends snapshot entries to response cache c, most
// recently used first (exportResponses' order), and reports how many it
// added. Like the cache's own fills it keeps only 200s: a snapshot or
// peer fill may carry anything, and an installed entry replays as a hit
// until it is evicted. Keys already present, completed or in flight,
// win: an in-flight owner must never have its slot replaced beneath it,
// and local traffic outranks imported history, so beyond capacity the
// least recently used imports are evicted first.
func importResponses(c *flight.Cache[string, response], entries []cachesnap.ResponseEntry) int {
	added := 0
	for _, ent := range entries {
		if ent.Key == "" || ent.Status != http.StatusOK {
			continue
		}
		if c.Append(ent.Key, response{
			status:      ent.Status,
			contentType: ent.ContentType,
			body:        ent.Body,
		}) {
			added++
		}
	}
	return added
}

package sim

import (
	"math"
	"sort"

	"ooc/internal/cachesnap"
)

// ExportCrossSectionCache returns every *completed, successful*
// cross-section solve as snapshot entries, sorted by (aspect, n) so
// identical cache states export identical slices. In-flight
// slots are skipped: their values do not exist yet, and serializing a
// waiter's slot would resurrect it as a bogus completed entry on
// import. Failed solves never stay in the cache at all (the owner
// removes its slot), so exports contain values only.
func ExportCrossSectionCache() []cachesnap.CrossSectionEntry {
	crossSectionCache.Lock()
	defer crossSectionCache.Unlock()
	entries := make([]cachesnap.CrossSectionEntry, 0, len(crossSectionCache.m))
	for key, e := range crossSectionCache.m {
		select {
		case <-e.done:
			// Completed: the owner stored val/err before closing done,
			// so the receive above orders this read after those writes.
		default:
			continue // in flight — never serialized
		}
		if e.err != nil {
			// An error slot caught between completion and the owner's
			// removal; defensively excluded (errors are never cached).
			continue
		}
		entries = append(entries, cachesnap.CrossSectionEntry{
			Aspect: key.aspect,
			N:      key.n,
			Value:  e.val,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		//ooclint:ignore floatcmp sort key: exact ordering over distinct cache-key bits
		if a.Aspect != b.Aspect {
			return a.Aspect < b.Aspect
		}
		return a.N < b.N
	})
	return entries
}

// ImportCrossSectionCache installs snapshot entries as completed cache
// slots and reports how many were added. Entries are re-validated one
// by one — a snapshot may arrive over the network, and a value that
// violates the solver's own invariants (aspect < 1, n outside
// [8, MaxNumericResolution], a non-positive or non-finite integral) is
// skipped
// rather than trusted. Keys already present (completed or in flight)
// are left untouched: the live process's entry wins over the imported
// one, and an in-flight owner must never have its slot replaced
// beneath it.
func ImportCrossSectionCache(entries []cachesnap.CrossSectionEntry) int {
	crossSectionCache.Lock()
	defer crossSectionCache.Unlock()
	added := 0
	for _, ent := range entries {
		if ent.Aspect < 1 || math.IsInf(ent.Aspect, 0) || math.IsNaN(ent.Aspect) {
			continue
		}
		if checkNumericResolution(ent.N) != nil {
			continue
		}
		if !(ent.Value > 0) || math.IsInf(ent.Value, 0) {
			continue
		}
		key := crossSectionKey{aspect: ent.Aspect, n: ent.N}
		if _, exists := crossSectionCache.m[key]; exists {
			continue
		}
		done := make(chan struct{})
		close(done)
		crossSectionCache.m[key] = &csEntry{done: done, val: ent.Value}
		added++
	}
	return added
}

// CrossSectionCacheSizeCompleted reports the number of completed
// memoized solves — the entries ExportCrossSectionCache would
// serialize. CrossSectionCacheSize also counts in-flight singleflight
// slots, so the two differ exactly while solves are running.
func CrossSectionCacheSizeCompleted() int {
	crossSectionCache.Lock()
	defer crossSectionCache.Unlock()
	n := 0
	for _, e := range crossSectionCache.m {
		select {
		case <-e.done:
			n++
		default:
		}
	}
	return n
}

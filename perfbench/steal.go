package main

// Host steal. On a shared virtual machine the hypervisor can take the
// CPUs away for seconds at a time, and every figure of a slice it hit
// reads slow, whatever the code did. The kernel counts that time as
// steal; slices with too much of it are timed again.

import (
	"bytes"
	"os"
	"sort"
	"strconv"
)

// stealLimit is the share of CPU time the host may steal during a
// slice before the slice is set aside.
const stealLimit = 0.05

// stealCap bounds the timed phase at this many times --seconds of
// wall time; past it, the least-stolen slices stand in for clean ones.
const stealCap = 2

// cpuTicks is a reading of the all-CPU line of /proc/stat.
type cpuTicks struct{ steal, total uint64 }

// readTicks returns the cumulative steal and total ticks of all CPUs,
// or false where the kernel does not expose them.
func readTicks() (cpuTicks, bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	fields := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal …
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of CPU time stolen between two readings; 0
// when either reading failed or no tick passed.
func stealShare(a, b cpuTicks, ok bool) float64 {
	if !ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sample is one measured value with the host steal during it.
type sample struct{ value, steal float64 }

// leastStolen returns the values of the n samples with the least steal.
func leastStolen(samples []sample, n int) []float64 {
	byShare := append([]sample(nil), samples...)
	sort.SliceStable(byShare, func(a, b int) bool { return byShare[a].steal < byShare[b].steal })
	out := make([]float64, 0, n)
	for _, s := range byShare[:min(n, len(byShare))] {
		out = append(out, s.value)
	}
	return out
}

package sim

import (
	"math"
	"sort"
	"testing"

	"ooc/internal/core"
	"ooc/internal/fluid"
	"ooc/internal/netlist"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

// mainVelocityAt is the quadratic reference for junction.mainVelocity:
// it scans every channel for each query and returns the largest design
// mean velocity among the other channels meeting at the node, other
// meaning not named except.
func mainVelocityAt(d *core.Design, node, except string) units.Velocity {
	var vMax units.Velocity
	for i := range d.Channels {
		c := &d.Channels[i]
		if c.Name == except || (c.From != node && c.To != node) {
			continue
		}
		if v := fluid.MeanVelocity(c.DesignFlow, c.Cross); v > vMax {
			vMax = v
		}
	}
	return vMax
}

// tapVelocityMismatches compares, at every tap end of every channel,
// the scan's main-line velocity with ref's, bit for bit. It returns the
// number of tap ends compared and the number that differ.
func tapVelocityMismatches(t *testing.T, d *core.Design, ref func(d *core.Design, i int, node string) units.Velocity) (ends, mismatches int) {
	t.Helper()
	b := &builtNetwork{net: netlist.New(), nodes: make(map[string]netlist.NodeID)}
	g := scanChannels(b, d)
	for i := range d.Channels {
		c := &d.Channels[i]
		for k, node := range []string{c.From, c.To} {
			if !isTapNode(node) {
				continue
			}
			if got := b.net.NodeName(g.ends[i][k]); got != node {
				t.Fatalf("channel %q end %d: scan numbered node %q, want %q", c.Name, k, got, node)
			}
			ends++
			got := g.junctions[g.ends[i][k]].mainVelocity(c.Name)
			if want := ref(d, i, node); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				mismatches++
			}
		}
	}
	return ends, mismatches
}

// byName is the reference the validator follows: exclusion by name.
func byName(d *core.Design, i int, node string) units.Velocity {
	return mainVelocityAt(d, node, d.Channels[i].Name)
}

// TestJunctionVelocitiesMatchReference: the one-pass scan gives every
// tap end the main-line velocity of the quadratic reference, bit for
// bit, on every use case at each of the search's 20 default candidate
// geometries.
func TestJunctionVelocitiesMatchReference(t *testing.T) {
	heights := []float64{100, 125, 150, 175, 200}
	gaps := []float64{2, 2.5, 3, 4}
	designs := 0
	for _, uc := range usecases.All() {
		for _, h := range heights {
			for _, gap := range gaps {
				spec := uc.Build()
				spec.Geometry.ChannelHeight = units.Micrometres(h)
				spec.Geometry.MinGap = units.Millimetres(gap)
				d, err := core.Generate(spec)
				if err != nil {
					continue // an infeasible candidate has no network to scan
				}
				designs++
				ends, bad := tapVelocityMismatches(t, d, byName)
				if ends == 0 || bad != 0 {
					t.Fatalf("%s h=%gµm gap=%gmm: %d of %d tap ends differ from the reference", uc.Name, h, gap, bad, ends)
				}
			}
		}
	}
	if designs < len(usecases.All())*len(heights)*len(gaps)/2 {
		t.Fatalf("only %d candidate designs generated", designs)
	}
}

// TestJunctionVelocitiesRepeatedName: a design loaded from JSON
// (render.ParseJSON) may repeat a channel name and list its channels
// in any order, and the scan must then exclude every channel of the
// queried name, as the reference does. At the feed tap F1 the second
// fastest channel takes the name of the fastest, so exclusion by
// channel index gives a different answer; both channel orders run, so
// the fastest arrives at the scan both before and after its namesake.
func TestJunctionVelocitiesRepeatedName(t *testing.T) {
	base := mustDesign(t, maleSimpleSpec())
	for _, reversed := range []bool{false, true} {
		d := *base
		d.Channels = append([]core.Channel(nil), base.Channels...)
		if reversed {
			for i, j := 0, len(d.Channels)-1; i < j; i, j = i+1, j-1 {
				d.Channels[i], d.Channels[j] = d.Channels[j], d.Channels[i]
			}
		}
		var atTap []int
		for i := range d.Channels {
			if d.Channels[i].From == "F1" || d.Channels[i].To == "F1" {
				atTap = append(atTap, i)
			}
		}
		v := func(i int) units.Velocity { return fluid.MeanVelocity(d.Channels[i].DesignFlow, d.Channels[i].Cross) }
		sort.Slice(atTap, func(a, b int) bool { return v(atTap[a]) > v(atTap[b]) })
		if len(atTap) != 3 || !(v(atTap[0]) > v(atTap[1]) && v(atTap[1]) > v(atTap[2])) {
			t.Fatalf("tap F1 needs three channels of distinct velocities, has %d", len(atTap))
		}
		d.Channels[atTap[1]].Name = d.Channels[atTap[0]].Name

		if ends, bad := tapVelocityMismatches(t, &d, byName); ends == 0 || bad != 0 {
			t.Fatalf("reversed=%t: %d of %d tap ends differ from the by-name reference", reversed, bad, ends)
		}
		byIndex := func(d *core.Design, i int, node string) units.Velocity {
			var vMax units.Velocity
			for k := range d.Channels {
				c := &d.Channels[k]
				if k == i || (c.From != node && c.To != node) {
					continue
				}
				if v := fluid.MeanVelocity(c.DesignFlow, c.Cross); v > vMax {
					vMax = v
				}
			}
			return vMax
		}
		if _, bad := tapVelocityMismatches(t, &d, byIndex); bad == 0 {
			t.Fatalf("reversed=%t: the repeated name does not separate exclusion by name from exclusion by index", reversed)
		}
	}
}

package main

// Seeded inputs. Every request the benchmark sends is generated here
// from the run's seed, so one seed always yields a byte-identical op
// sequence, and the server receives nothing but request bytes.

import (
	"encoding/json"
	"fmt"
	"math"

	"ooc/internal/specio"
	"ooc/internal/units"
	"ooc/internal/usecases"
)

// The request targets of the four traffic mixes. No request names
// ?model=numeric or ?scheme=: both may leave the serving path, and a
// workload that used them would turn that simplification into failed
// operations.
const (
	designPath    = "/v1/design"
	validatePath  = "/v1/validate"
	budgetPath    = "/v1/validate?error_budget=0.01"
	transientPath = "/v1/validate?model=dynamic&duration=1s&profile=pulse:0.5@500ms&dose=1"
	jobsPath      = "/v1/jobs"

	// errorBudget is the ?error_budget= of budgetPath.
	errorBudget = 0.01
)

// opKind is what one operation asks of the server.
type opKind int

const (
	opDesign         opKind = iota // POST /v1/design
	opValidate                     // POST /v1/validate (exact model)
	opValidateBudget               // POST /v1/validate?error_budget=0.01
	opTransient                    // POST /v1/validate?model=dynamic…
	opSearch                       // POST /v1/jobs, then poll until terminal
)

// op is one generated request. key is the serve_warm catalogue entry
// the op repeats, or -1.
type op struct {
	kind opKind
	path string
	body []byte
	key  int
}

// Phases of a run draw from independent streams of the same seed, so
// warm-up traffic never overlaps the timed traffic.
const (
	streamWarmup uint64 = iota + 1
	streamTimed
	streamCatalogue
	streamZipf
)

// rng is splitmix64: tiny and fully specified, so a seed's op sequence
// does not change with the Go release (math/rand promises no such
// thing).
type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{state: seed ^ stream*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// specGen draws specifications over the paper's Sec. IV ranges: the
// eight use cases, with viscosity, shear stress and channel spacing
// drawn continuously between the extremes of the evaluation sweep, so
// no two request bodies repeat. Use cases are dealt from shuffled
// decks, so every run sees the same mix of chip sizes and its work
// varies little from seed to seed.
type specGen struct {
	r                    *rng
	cases                []usecases.UseCase
	deck                 []int // use-case indexes left in the current deck
	muLo, muHi           units.Viscosity
	tauLo, tauHi         units.ShearStress
	spacingLo, spacingHi units.Length
}

func newSpecGen(r *rng) *specGen {
	sw := usecases.ExtendedSweep()
	g := &specGen{r: r, cases: usecases.All()}
	g.muLo, g.muHi = extremes(sw.Viscosities)
	g.tauLo, g.tauHi = extremes(sw.Shears)
	g.spacingLo, g.spacingHi = extremes(sw.Spacings)
	return g
}

func extremes[T ~float64](xs []T) (lo, hi T) {
	lo, hi = T(math.Inf(1)), T(math.Inf(-1))
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// shuffled returns a seeded permutation of 0..n-1.
func (r *rng) shuffled(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// next returns the JSON document of a fresh specification of the next
// use case in the deck.
func (g *specGen) next() []byte {
	if len(g.deck) == 0 {
		g.deck = g.r.shuffled(len(g.cases))
	}
	uc := g.deck[0]
	g.deck = g.deck[1:]
	return g.spec(uc)
}

// spec returns the JSON document of a fresh specification of use case
// uc.
func (g *specGen) spec(uc int) []byte {
	spec := g.cases[uc].Build()
	spec.Fluid.Viscosity = units.PascalSeconds(g.r.uniform(g.muLo.PascalSeconds(), g.muHi.PascalSeconds()))
	spec.ShearStress = units.PascalsShear(g.r.uniform(g.tauLo.Pascals(), g.tauHi.Pascals()))
	spec.Geometry.Spacing = units.Metres(g.r.uniform(g.spacingLo.Metres(), g.spacingHi.Metres()))
	body, err := specio.Marshal(spec)
	if err != nil {
		// The use cases and the drawn ranges are fixed inputs; a spec
		// that cannot be serialized is a bug in this file.
		panic(fmt.Sprintf("perfbench: marshal generated spec: %v", err))
	}
	return body
}

// jobBody wraps a spec into a successive-halving search request with
// the default candidate axes and the exact model.
func jobBody(spec []byte) []byte {
	body, err := json.Marshal(struct {
		Spec     json.RawMessage `json:"spec"`
		Strategy string          `json:"strategy"`
	}{spec, "halving"})
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal job request: %v", err))
	}
	return body
}

// coldMix is serve_cold's endpoint mix: 40 % design, 30 % exact
// validation, 30 % budgeted validation.
var coldMix = [10]op{
	{kind: opDesign, path: designPath}, {kind: opDesign, path: designPath},
	{kind: opDesign, path: designPath}, {kind: opDesign, path: designPath},
	{kind: opValidate, path: validatePath}, {kind: opValidate, path: validatePath},
	{kind: opValidate, path: validatePath},
	{kind: opValidateBudget, path: budgetPath}, {kind: opValidateBudget, path: budgetPath},
	{kind: opValidateBudget, path: budgetPath},
}

// coldOps deals serve_cold's ops from shuffled decks of every (use
// case, mix slot) pair, so each use case meets the endpoint mix exactly
// and the bodies the response cache holds vary little with the seed.
func coldOps(seed, stream uint64) opSource {
	r := newRNG(seed, stream)
	g := newSpecGen(r)
	var deck []int
	return func() op {
		if len(deck) == 0 {
			deck = r.shuffled(len(g.cases) * len(coldMix))
		}
		card := deck[0]
		deck = deck[1:]
		o := coldMix[card%len(coldMix)]
		o.body, o.key = g.spec(card/len(coldMix)), -1
		return o
	}
}

// warmSpecs is serve_warm's catalogue size: 96 specs × {design,
// budgeted validate} = 192 keys, inside the default 256-entry response
// cache.
const warmSpecs = 96

// zipfS is the skew of serve_warm's key popularity.
const zipfS = 1.1

// catalogue returns serve_warm's fill ops, one per cache key, in
// popularity order: key k is the design (k even) or the budgeted
// validation (k odd) of spec k/2, and spec i is of use case i mod 8.
// The seed draws the bodies; the popularity of each use case and
// endpoint is part of the workload and does not change with it.
func catalogue(seed uint64) []op {
	g := newSpecGen(newRNG(seed, streamCatalogue))
	ops := make([]op, 0, 2*warmSpecs)
	for i := 0; i < warmSpecs; i++ {
		spec := g.spec(i % len(g.cases))
		ops = append(ops,
			op{kind: opDesign, path: designPath, body: spec, key: len(ops)},
			op{kind: opValidateBudget, path: budgetPath, body: spec, key: len(ops) + 1})
	}
	return ops
}

// zipf draws key k of n with probability ∝ (k+1)^-s.
type zipf struct {
	r   *rng
	cdf []float64
}

func newZipf(r *rng, n int, s float64) *zipf {
	z := &zipf{r: r, cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) next() int {
	u := z.r.float()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// opSource yields a workload's ops for one phase, in order.
type opSource func() op

// take draws the next n ops.
func (src opSource) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = src()
	}
	return ops
}

// Package channel models the physical wireless medium underneath the Data
// channel's MAC: per-link bit-error rates and the per-transmission
// delivery outcomes they induce.
//
// The paper's evaluation assumes an ideal intra-chip channel — every
// committed transmission reaches every Broadcast Memory intact. Channel
// measurements of later WNoC work (Timoneda et al., "Engineer the Channel
// and Adapt to it") show per-link attenuation and therefore BER is
// position-dependent across the die, and must be engineered around or
// adapted to. This package supplies that axis as a pluggable Model between
// wireless.Network and its MACs: the ideal profile (the default, and the
// one all golden matrices are pinned against), a uniform profile where
// every link shares one raw BER, and a distance profile where a link's BER
// grows quadratically with the sender-receiver distance on the same
// most-square grid the wired mesh uses (noc.Dims), normalized so the
// worst (corner-to-corner) link sees the configured raw BER.
//
// A broadcast survives only if it survives on every link: receivers CRC
// the frame, and any corrupted copy NACKs the whole transmission (the
// medium is a broadcast bus, so one NACK tone suffices and every node
// observes it). The per-transmission survival probability for a B-bit
// frame from source s is therefore prod_over_receivers((1-BER(s,r))^B),
// which the Model precomputes per source so one uniform draw decides each
// transmission. Corrupted transmissions are retransmitted by the Network
// through the normal MAC Submit path, up to Params.MaxRetries times.
//
// All draws come from a sim.Rand the Network forks from the engine at
// construction time (only when the profile is non-ideal, so the ideal
// channel consumes no entropy and perturbs nothing), and are made in
// commit-event order — which the engine keeps identical across host
// worker counts — so a corruption schedule is a pure function of
// (seed, config).
package channel

import (
	"encoding/json"
	"fmt"
	"math"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// Profile selects the per-link BER structure of the medium.
type Profile uint8

const (
	// Ideal is the paper's error-free channel: every transmission
	// delivers. It is the default; every golden matrix is pinned against
	// it.
	Ideal Profile = iota
	// Uniform gives every (src, dst) link the same raw BER.
	Uniform
	// Distance scales the raw BER by the squared normalized Euclidean
	// distance between src and dst on the chip grid: adjacent cores see a
	// nearly clean link, the corner-to-corner link sees the full
	// configured BER (the position-dependence of Timoneda et al.).
	Distance
	// Burst is a Gilbert-Elliott two-state channel: the whole medium
	// alternates between a good state at Params.BERGood and a bad state
	// at Params.BER, with per-transmission transition probabilities
	// Params.PGB (good -> bad) and Params.PBG (bad -> good). Errors
	// therefore arrive in bursts whose mean length is 1/PBG
	// transmissions — the time-varying channel conditions of Timoneda et
	// al., as opposed to the stationary Uniform/Distance profiles.
	Burst
)

// Profiles lists the selectable profiles in presentation order.
var Profiles = []Profile{Ideal, Uniform, Distance, Burst}

func (p Profile) String() string {
	switch p {
	case Ideal:
		return "ideal"
	case Uniform:
		return "uniform"
	case Distance:
		return "distance"
	case Burst:
		return "burst"
	}
	return fmt.Sprintf("Profile(%d)", int(p))
}

// ParseProfile resolves a -channel flag value.
func ParseProfile(s string) (Profile, bool) {
	for _, p := range Profiles {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

// Valid reports whether p names a selectable profile.
func (p Profile) Valid() bool { return p <= Burst }

// MarshalJSON renders the profile as its flag name; unknown values are an
// error so a corrupt profile cannot produce a plausible canonical form.
func (p Profile) MarshalJSON() ([]byte, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("channel: cannot marshal invalid %v", p)
	}
	return json.Marshal(p.String())
}

// UnmarshalJSON accepts a profile name as ParseProfile does.
func (p *Profile) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("channel: profile must be a name string: %w", err)
	}
	v, ok := ParseProfile(s)
	if !ok {
		return fmt.Errorf("channel: unknown profile %q", s)
	}
	*p = v
	return nil
}

// DefaultMaxRetries is the retransmission budget a zero Params.MaxRetries
// resolves to for non-ideal profiles: enough that realistic BERs
// essentially never exhaust it (at BER 1e-3 a 77-bit frame corrupts with
// probability ~7%, so eight retries leave a failure probability ~1e-10),
// while a deliberately hostile test channel fails fast.
const DefaultMaxRetries = 8

// MaxRetriesCap bounds the configurable retransmission budget.
const MaxRetriesCap = 100

// Params configures the channel-error model. The zero value is the ideal
// channel.
type Params struct {
	// Profile selects the per-link BER structure (default Ideal).
	Profile Profile
	// BER is the raw bit-error rate of the worst link: every link under
	// Uniform, the corner-to-corner link under Distance, the bad state
	// under Burst. Zero means DefaultBER for non-ideal profiles; ignored by
	// Ideal.
	BER float64
	// MaxRetries bounds how many times one transmission is resubmitted
	// after corrupted deliveries before the send completes as a delivery
	// failure. Zero means DefaultMaxRetries for non-ideal profiles.
	MaxRetries int
	// BERGood is the Burst profile's good-state bit-error rate (the bad
	// state uses BER). Ignored by every other profile.
	BERGood float64 `json:",omitempty"`
	// PGB and PBG are the Burst profile's per-transmission transition
	// probabilities, good -> bad and bad -> good. Zero values resolve to
	// DefaultPGB and DefaultPBG.
	PGB float64 `json:",omitempty"`
	PBG float64 `json:",omitempty"`
}

// Default Burst transition probabilities: bursts begin rarely (one
// transmission in fifty) and last twenty transmissions on average.
const (
	DefaultPGB = 0.02
	DefaultPBG = 0.05
)

// DefaultBER is the worst-link raw bit-error rate a zero Params.BER
// resolves to for non-ideal profiles.
const DefaultBER = 1e-4

// DefaultParams returns the ideal channel.
func DefaultParams() Params { return Params{Profile: Ideal} }

// Normalize returns the canonical form of p: zero BER, MaxRetries, PGB and
// PBG take their profile defaults (DefaultBER, DefaultMaxRetries,
// DefaultPGB, DefaultPBG), and knobs the profile does not read are zeroed,
// so two parameter sets that model the same medium compare — and digest —
// equal. It is the one place channel defaults are decided.
func (p Params) Normalize() Params {
	if p.Profile == Ideal {
		return Params{}
	}
	if p.BER == 0 {
		p.BER = DefaultBER
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	if p.Profile != Burst {
		// Only the burst profile reads the Gilbert–Elliott knobs.
		p.BERGood, p.PGB, p.PBG = 0, 0, 0
		return p
	}
	if p.PGB == 0 {
		p.PGB = DefaultPGB
	}
	if p.PBG == 0 {
		p.PBG = DefaultPBG
	}
	return p
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if !p.Profile.Valid() {
		return fmt.Errorf("channel: unknown profile %v", p.Profile)
	}
	if p.BER < 0 || p.BER >= 1 {
		return fmt.Errorf("channel: BER %g outside [0,1)", p.BER)
	}
	if p.MaxRetries < 0 || p.MaxRetries > MaxRetriesCap {
		return fmt.Errorf("channel: %d retries outside [0,%d]", p.MaxRetries, MaxRetriesCap)
	}
	if p.BERGood < 0 || p.BERGood >= 1 {
		return fmt.Errorf("channel: good-state BER %g outside [0,1)", p.BERGood)
	}
	if p.PGB < 0 || p.PGB > 1 || p.PBG < 0 || p.PBG > 1 {
		return fmt.Errorf("channel: transition probabilities (%g, %g) outside [0,1]", p.PGB, p.PBG)
	}
	if p.Profile == Burst && p.BERGood > p.BER {
		return fmt.Errorf("channel: good-state BER %g exceeds bad-state BER %g", p.BERGood, p.BER)
	}
	return nil
}

// Model decides per-transmission delivery outcomes for one chip's medium.
// Implementations are deterministic given the rng handed to Corrupts.
type Model interface {
	// Profile identifies the BER structure.
	Profile() Profile
	// Ideal reports whether the model can never corrupt a transmission;
	// the Network skips the draw (and never forks an rng) when it is true.
	Ideal() bool
	// LinkBER returns the raw bit-error rate of the src -> dst link.
	LinkBER(src, dst int) float64
	// Corrupts draws the outcome of a bits-bit broadcast from src:
	// true means at least one receiver saw a corrupted frame and NACKed.
	Corrupts(rng *sim.Rand, src, bits int) bool
	// MaxRetries is the per-transmission retransmission budget.
	MaxRetries() int
}

// New builds the model selected by the normalized form of p for a chip
// with the given node count.
func New(nodes int, p Params) (Model, error) {
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("channel: invalid node count %d", nodes)
	}
	if p.Profile == Ideal {
		return ideal{}, nil
	}
	if p.Profile == Burst {
		g := &gilbertElliott{nodes: nodes, retries: p.MaxRetries,
			berGood: p.BERGood, berBad: p.BER, pGB: p.PGB, pBG: p.PBG}
		g.survGood = survival(g.berGood, nodes)
		g.survBad = survival(g.berBad, nodes)
		return g, nil
	}
	m := &matrix{profile: p.Profile, nodes: nodes, retries: p.MaxRetries}
	m.build(p.BER)
	return m, nil
}

// survival returns the per-bit broadcast survival probability under one
// uniform BER: every one of the nodes-1 receivers must see the bit clean.
func survival(ber float64, nodes int) float64 {
	return math.Pow(1-ber, float64(nodes-1))
}

// ideal is the error-free channel.
type ideal struct{}

func (ideal) Profile() Profile                  { return Ideal }
func (ideal) Ideal() bool                       { return true }
func (ideal) LinkBER(src, dst int) float64      { return 0 }
func (ideal) Corrupts(*sim.Rand, int, int) bool { return false }
func (ideal) MaxRetries() int                   { return 0 }

// matrix is a per-link BER table with precomputed per-source per-bit
// broadcast survival, so one uniform draw decides each transmission.
type matrix struct {
	profile Profile
	nodes   int
	retries int
	// ber[src*nodes+dst] is the raw BER of the src -> dst link (0 on the
	// diagonal; the sender does not receive its own frame).
	ber []float64
	// survival[src] = prod over dst != src of (1 - ber[src][dst]): the
	// probability one bit of a broadcast from src survives at every
	// receiver. A B-bit frame survives with probability survival^B.
	survival []float64
}

// build fills the BER matrix for the profile. Node positions are the wired
// mesh's most-square grid (noc.Dims), so "distance" means the same thing
// to the channel model and to the NoC it competes against.
func (m *matrix) build(rawBER float64) {
	n := m.nodes
	m.ber = make([]float64, n*n)
	m.survival = make([]float64, n)
	cols, _ := noc.Dims(n)
	dist := func(a, b int) float64 {
		dx := float64(a%cols - b%cols)
		dy := float64(a/cols - b/cols)
		return math.Sqrt(dx*dx + dy*dy)
	}
	dmax := dist(0, n-1) // corner to corner on the grid
	for src := 0; src < n; src++ {
		s := 1.0
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			b := rawBER
			if m.profile == Distance && dmax > 0 {
				frac := dist(src, dst) / dmax
				b = rawBER * frac * frac
			}
			m.ber[src*n+dst] = b
			s *= 1 - b
		}
		m.survival[src] = s
	}
}

func (m *matrix) Profile() Profile { return m.profile }
func (m *matrix) Ideal() bool      { return false }
func (m *matrix) MaxRetries() int  { return m.retries }

func (m *matrix) LinkBER(src, dst int) float64 {
	return m.ber[src*m.nodes+dst]
}

func (m *matrix) Corrupts(rng *sim.Rand, src, bits int) bool {
	p := math.Pow(m.survival[src], float64(bits))
	return rng.Float64() >= p
}

// gilbertElliott is the Burst profile: one medium-wide two-state Markov
// chain stepped once per transmission. The state evolves in the
// Network's commit-event order — the same order every other channel draw
// uses — so the burst schedule is deterministic across worker counts.
// Every Corrupts call makes exactly two draws (transition, then outcome)
// regardless of state, so the rng stream consumed is a pure function of
// the transmission count.
type gilbertElliott struct {
	nodes, retries    int
	berGood, berBad   float64
	pGB, pBG          float64
	survGood, survBad float64
	bad               bool
}

func (g *gilbertElliott) Profile() Profile { return Burst }
func (g *gilbertElliott) Ideal() bool      { return false }
func (g *gilbertElliott) MaxRetries() int  { return g.retries }

// LinkBER reports the bad-state (worst-case) BER: the Burst channel is
// uniform across links, varying in time instead of space.
func (g *gilbertElliott) LinkBER(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return g.berBad
}

func (g *gilbertElliott) Corrupts(rng *sim.Rand, src, bits int) bool {
	flip := rng.Float64()
	if g.bad {
		if flip < g.pBG {
			g.bad = false
		}
	} else if flip < g.pGB {
		g.bad = true
	}
	surv := g.survGood
	if g.bad {
		surv = g.survBad
	}
	return rng.Float64() >= math.Pow(surv, float64(bits))
}

package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// Workload names. Both are closed loops. The traced run also replays
// cold appraisals (fresh-seed misses of the bench fleet) in process; see
// README.md for why they are not an untraced workload.
const (
	workHot  = "appraise-hot"
	workPair = "topology-pair"
)

var workloads = []string{workHot, workPair}

// fleetSpec is the POST /appraise body: the JSON face of
// scenario.FleetSpec, restated here so the benchmark sends exactly what
// an operator's client would.
type fleetSpec struct {
	Name         string       `json:"name"`
	Size         int          `json:"size"`
	TamperEvery  int          `json:"tamper_every"`
	TamperOffset int          `json:"tamper_offset"`
	Shares       []fleetShare `json:"shares"`
}

type fleetShare struct {
	Name            string  `json:"name"`
	FirmwareVersion uint64  `json:"firmware_version,omitempty"`
	FirmwarePayload string  `json:"firmware_payload,omitempty"`
	Fraction        float64 `json:"fraction"`
}

// shardSize is the fleet engine's default verifier-shard size; the
// bench fleet spans two shards of it.
const shardSize = 4096

// benchFleet is the one fleet appraise-hot and the traced run's cold
// appraisals post: 8,192 devices in three shares, every eighth device
// (offset 3) tampered.
// Each share posts its own firmware payload, so the three shares boot
// three distinct golden measurements.
func benchFleet() fleetSpec {
	return fleetSpec{
		Name: "bench-grid", Size: 2 * shardSize, TamperEvery: 8, TamperOffset: 3,
		Shares: []fleetShare{
			{Name: "substation-gw", FirmwareVersion: 4, FirmwarePayload: "substation-gw firmware v4", Fraction: 0.5},
			{Name: "feeder-plc", FirmwareVersion: 2, FirmwarePayload: "feeder-plc firmware v2", Fraction: 0.3},
			{Name: "meter-rtu", FirmwareVersion: 7, FirmwarePayload: "meter-rtu firmware v7", Fraction: 0.2},
		},
	}
}

// hotSeeds is how many appraisal seeds appraise-hot stores during
// set-up and then cycles through.
const hotSeeds = 8

// Seed-stream purposes: every input family draws from its own stream,
// so adding warm-up requests never shifts the timed inputs.
const (
	streamCold = iota + 1
	streamHot
	streamCells
	streamWarmCells
	streamHistory
)

// stream returns the deterministic generator for one input family of a
// run seed.
func stream(seed int64, purpose int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(purpose)))
}

// seedSource hands out distinct request seeds, so that every cold
// request and every cell is a store miss. Each purpose draws from its
// own range, so no two sources can hand out the same seed either.
type seedSource struct {
	rng  *rand.Rand
	base int64
	seen map[int64]bool
}

func newSeedSource(seed int64, purpose int) *seedSource {
	return &seedSource{rng: stream(seed, purpose), base: int64(purpose) << 40, seen: map[int64]bool{}}
}

func (s *seedSource) next() int64 {
	for {
		v := s.base + s.rng.Int63n(1<<40)
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// cell is one /topology request of the pair script.
type cell struct {
	Kind   string
	Size   int
	Fanout int
	Mode   string
	Faults string
	Seed   int64
}

// query renders the cell as its /topology query string.
func (c cell) query() string {
	v := url.Values{}
	v.Set("kind", c.Kind)
	v.Set("size", strconv.Itoa(c.Size))
	if c.Fanout > 0 {
		v.Set("fanout", strconv.Itoa(c.Fanout))
	}
	v.Set("mode", c.Mode)
	v.Set("faults", c.Faults)
	v.Set("seed", strconv.FormatInt(c.Seed, 10))
	return "/topology?" + v.Encode()
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%d/%s/%s/seed=%d", c.Kind, c.Size, c.Mode, c.Faults, c.Seed)
}

var (
	cellKinds  = []string{"ring", "star", "mesh", "random"}
	cellModes  = []string{"baseline", "cres-isolated", "cres-coop"}
	cellFaults = []string{"none", "low", "high"}
	cellSizes  = []int{16, 24, 32}
)

// cellScript generates the pair workload's cells one round at a time.
// A round is the full design grid — four wirings × three modes × three
// fault levels — in a seeded order. Within each (wiring, mode) the
// three fault levels take the sizes 16, 24 and 32 in a seeded
// permutation, so every round carries the same mix of work and only
// the assignment and the cell seeds vary with the run seed.
type cellScript struct {
	rng   *rand.Rand
	seeds *seedSource
}

func newCellScript(seed int64, purpose int) *cellScript {
	return &cellScript{rng: stream(seed, purpose), seeds: newSeedSource(seed, purpose+100)}
}

// warmCells are the pair workload's warm-up cells: three fixed shapes,
// one per fault level and spanning the sizes, at fresh seeds of their
// own, so that every run's set-up does the same work whatever its seed.
func warmCells(seed int64) []cell {
	seeds := newSeedSource(seed, streamWarmCells+100)
	return []cell{
		{Kind: "ring", Size: 16, Fanout: 2, Mode: "baseline", Faults: "none", Seed: seeds.next()},
		{Kind: "mesh", Size: 24, Mode: "cres-isolated", Faults: "low", Seed: seeds.next()},
		{Kind: "random", Size: 32, Fanout: 2, Mode: "cres-coop", Faults: "high", Seed: seeds.next()},
	}
}

func (s *cellScript) round() []cell {
	var out []cell
	for _, kind := range cellKinds {
		fanout := 0
		if kind == "ring" || kind == "random" {
			fanout = 2
		}
		for _, mode := range cellModes {
			perm := s.rng.Perm(len(cellSizes))
			for i, faults := range cellFaults {
				out = append(out, cell{
					Kind: kind, Size: cellSizes[perm[i]], Fanout: fanout,
					Mode: mode, Faults: faults, Seed: s.seeds.next(),
				})
			}
		}
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

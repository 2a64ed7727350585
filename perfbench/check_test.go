package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cres/internal/service"
)

const testDigest = "0123456789abcdef0123456789abcdef"

// validAppraisal builds an /appraise body that meets every property of
// the bench fleet at seed 5, as a mutable map.
func validAppraisal() map[string]any {
	fl := benchFleet()
	var sample []any
	for j := 0; j < sampleK; j++ {
		sample = append(sample, map[string]any{
			"index": 8*j + 3, "reason": "caught", "share": fl.Shares[j%len(fl.Shares)].Name, "latency_ns": 1000,
		})
	}
	return map[string]any{
		"schema": bodySchema, "endpoint": "appraise", "fleet": fl.Name, "devices": fl.Size, "shards": 2,
		"seed": 5, "config_digest": testDigest,
		"summary": map[string]any{
			"Devices": fl.Size, "Tampered": 1024, "Caught": 1024, "FalseAlarms": 0,
			"Hist": []int{0, 4000, 4000, 192, 0},
		},
		"sample": sample,
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckAppraisalRejectsCorruptedBodies(t *testing.T) {
	fl := benchFleet()
	if err := checkAppraisal(marshal(t, validAppraisal()), testDigest, fl, 5); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	summary := func(m map[string]any) map[string]any { return m["summary"].(map[string]any) }
	entry := func(m map[string]any, j int) map[string]any { return m["sample"].([]any)[j].(map[string]any) }
	cases := map[string]func(m map[string]any){
		"wrong seed":           func(m map[string]any) { m["seed"] = 6 },
		"wrong endpoint":       func(m map[string]any) { m["endpoint"] = "fleet" },
		"digest mismatch":      func(m map[string]any) { m["config_digest"] = "f" + testDigest[1:] },
		"devices short":        func(m map[string]any) { m["devices"] = fl.Size - 1 },
		"one shard":            func(m map[string]any) { m["shards"] = 1 },
		"summary devices":      func(m map[string]any) { summary(m)["Devices"] = 100 },
		"tampered off by one":  func(m map[string]any) { summary(m)["Tampered"] = 1023 },
		"one missed":           func(m map[string]any) { summary(m)["Caught"] = 1023 },
		"false alarm":          func(m map[string]any) { summary(m)["FalseAlarms"] = 1 },
		"histogram leak":       func(m map[string]any) { summary(m)["Hist"] = []int{0, 4000, 4000, 191, 0} },
		"sample short":         func(m map[string]any) { m["sample"] = m["sample"].([]any)[:7] },
		"sample healthy index": func(m map[string]any) { entry(m, 2)["index"] = 16 },
		"sample reason":        func(m map[string]any) { entry(m, 0)["reason"] = "false-alarm" },
		"sample share":         func(m map[string]any) { entry(m, 4)["share"] = "unposted" },
		"sample out of fleet":  func(m map[string]any) { entry(m, 1)["index"] = fl.Size + 3 },
		"not json":             nil,
	}
	for name, corrupt := range cases {
		body := []byte(`{"schema": "cresd/v1", "endpoint":`)
		if corrupt != nil {
			m := validAppraisal()
			corrupt(m)
			body = marshal(t, m)
		}
		if err := checkAppraisal(body, testDigest, fl, 5); err == nil {
			t.Errorf("%s: corrupted body accepted", name)
		}
	}
	if err := checkAppraisal(marshal(t, validAppraisal()), "", fl, 5); err == nil {
		t.Error("missing X-Cres-Digest header accepted")
	}
}

func testCell() cell {
	return cell{Kind: "ring", Size: 16, Fanout: 2, Mode: "cres-coop", Faults: "low", Seed: 9}
}

// validCell builds a /topology body that meets every property of
// testCell, as a mutable map.
func validCell() map[string]any {
	c := testCell()
	return map[string]any{
		"schema": bodySchema, "endpoint": "topology", "seed": c.Seed, "kind": c.Kind, "size": c.Size,
		"mode": c.Mode, "faults": c.Faults, "config_digest": testDigest,
		"cell": map[string]any{"Topology": c.Kind, "Mode": c.Mode, "Infected": 1, "Saved": 15, "Informed": 15},
		"events": []any{
			map[string]any{"At": 0, "Kind": "infected"},
			map[string]any{"At": 550000, "Kind": "quarantine"},
			map[string]any{"At": 550000, "Kind": "quarantine"},
			map[string]any{"At": 2000000, "Kind": "blocked"},
		},
	}
}

func TestCheckCellRejectsCorruptedBodies(t *testing.T) {
	c := testCell()
	valid := marshal(t, validCell())
	if err := checkPair(valid, valid, testDigest, testDigest, c); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
	inner := func(m map[string]any) map[string]any { return m["cell"].(map[string]any) }
	cases := map[string]func(m map[string]any){
		"wrong kind":          func(m map[string]any) { m["kind"] = "star" },
		"wrong size":          func(m map[string]any) { m["size"] = 17 },
		"wrong mode":          func(m map[string]any) { inner(m)["Mode"] = "baseline" },
		"wrong faults":        func(m map[string]any) { m["faults"] = "high" },
		"digest mismatch":     func(m map[string]any) { m["config_digest"] = "f" + testDigest[1:] },
		"devices lost":        func(m map[string]any) { inner(m)["Saved"] = 14 },
		"nobody infected":     func(m map[string]any) { inner(m)["Infected"] = 0; inner(m)["Saved"] = 16 },
		"informed beyond":     func(m map[string]any) { inner(m)["Informed"] = 17 },
		"events out of order": func(m map[string]any) { m["events"].([]any)[3].(map[string]any)["At"] = 1 },
	}
	for name, corrupt := range cases {
		m := validCell()
		corrupt(m)
		body := marshal(t, m)
		if err := checkPair(body, body, testDigest, testDigest, c); err == nil {
			t.Errorf("%s: corrupted body accepted", name)
		}
	}

	// A baseline cell informs nobody.
	base := c
	base.Mode = "baseline"
	m := validCell()
	m["mode"], inner(m)["Mode"] = "baseline", "baseline"
	if err := checkCell(marshal(t, m), testDigest, base); err == nil {
		t.Error("baseline cell with informed devices accepted")
	}
	inner(m)["Informed"] = 0
	if err := checkCell(marshal(t, m), testDigest, base); err != nil {
		t.Errorf("valid baseline cell rejected: %v", err)
	}

	// The two bodies of a pair must be byte-identical.
	other := validCell()
	other["events"] = other["events"].([]any)[:3]
	if err := checkPair(valid, marshal(t, other), testDigest, testDigest, c); err == nil {
		t.Error("pair with differing bodies accepted")
	}
	if err := checkPair(valid, append(bytes.Clone(valid), ' '), testDigest, testDigest, c); err == nil {
		t.Error("pair differing by one byte accepted")
	}
}

// TestChecksAcceptTheService runs one request of each kind through the
// real service in process: the checks must pass what cresd serves.
func TestChecksAcceptTheService(t *testing.T) {
	if testing.Short() {
		t.Skip("computes an 8,192-device appraisal")
	}
	srv, err := service.New(service.Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	spec := marshal(t, benchFleet())
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/appraise?seed=11", bytes.NewReader(spec)))
	if w.Code != 200 {
		t.Fatalf("appraise: %d %s", w.Code, w.Body)
	}
	if err := checkAppraisal(w.Body.Bytes(), w.Header().Get("X-Cres-Digest"), benchFleet(), 11); err != nil {
		t.Errorf("service appraisal rejected: %v", err)
	}
	for _, c := range newCellScript(3, streamCells).round()[:4] {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", c.query(), nil))
		if w.Code != 200 {
			t.Fatalf("cell %v: %d %s", c, w.Code, w.Body)
		}
		if err := checkCell(w.Body.Bytes(), w.Header().Get("X-Cres-Digest"), c); err != nil {
			t.Errorf("service cell rejected: %v", err)
		}
	}
}

func TestCellScriptRoundsCoverTheGrid(t *testing.T) {
	s := newCellScript(1, streamCells)
	seen := map[int64]bool{}
	for r := 0; r < 3; r++ {
		round := s.round()
		if len(round) != len(cellKinds)*len(cellModes)*len(cellFaults) {
			t.Fatalf("round of %d cells", len(round))
		}
		grid := map[string]int{}
		sizes := map[int]int{}
		for _, c := range round {
			grid[c.Kind+"/"+c.Mode+"/"+c.Faults]++
			sizes[c.Size]++
			if seen[c.Seed] {
				t.Fatalf("cell seed %d repeats: the cell would be a store hit", c.Seed)
			}
			seen[c.Seed] = true
		}
		if len(grid) != len(round) {
			t.Errorf("round repeats a grid point: %v", grid)
		}
		for _, n := range cellSizes {
			if sizes[n] != len(round)/len(cellSizes) {
				t.Errorf("round has %d cells of size %d", sizes[n], n)
			}
		}
	}
	a, b := newCellScript(4, streamCells).round(), newCellScript(4, streamCells).round()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave different scripts")
		}
	}
	if q := a[0].query(); !strings.Contains(q, "seed="+strconv.FormatInt(a[0].Seed, 10)) {
		t.Fatalf("query %q does not carry the cell seed", q)
	}
}

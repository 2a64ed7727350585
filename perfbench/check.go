package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

// The checks below hold each response to properties computed
// independently from the request — the tamper rule, conservation of
// devices, the echo of the request — never to a stored copy of an
// earlier output.

const bodySchema = "cresd/v1"

var digestRE = regexp.MustCompile(`^[0-9a-f]{32}$`)

// appraisal is the part of an /appraise body the checks read.
type appraisal struct {
	Schema       string `json:"schema"`
	Endpoint     string `json:"endpoint"`
	Fleet        string `json:"fleet"`
	Devices      int    `json:"devices"`
	Shards       int    `json:"shards"`
	Seed         int64  `json:"seed"`
	ConfigDigest string `json:"config_digest"`
	Summary      struct {
		Devices     int
		Tampered    int
		Caught      int
		FalseAlarms int
		Hist        []int
	} `json:"summary"`
	Sample []struct {
		Index  int    `json:"index"`
		Reason string `json:"reason"`
		Share  string `json:"share"`
	} `json:"sample"`
}

// sampleK is the engine's default anomaly-sample capacity; the bench
// spec does not override it.
const sampleK = 8

// checkAppraisal validates one /appraise body for spec at seed, with
// digest the response's X-Cres-Digest header.
func checkAppraisal(body []byte, digest string, spec fleetSpec, seed int64) error {
	var a appraisal
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("appraisal: %w", err)
	}
	if a.Schema != bodySchema || a.Endpoint != "appraise" || a.Fleet != spec.Name || a.Seed != seed {
		return fmt.Errorf("appraisal: envelope %q/%q fleet %q seed %d, want %q/appraise fleet %q seed %d",
			a.Schema, a.Endpoint, a.Fleet, a.Seed, bodySchema, spec.Name, seed)
	}
	if !digestRE.MatchString(digest) || a.ConfigDigest != digest {
		return fmt.Errorf("appraisal: config_digest %q, header %q", a.ConfigDigest, digest)
	}
	wantShards := (spec.Size + shardSize - 1) / shardSize
	if a.Devices != spec.Size || a.Summary.Devices != spec.Size || a.Shards != wantShards {
		return fmt.Errorf("appraisal: %d devices (summary %d) in %d shards, want %d in %d",
			a.Devices, a.Summary.Devices, a.Shards, spec.Size, wantShards)
	}
	tampered := 0
	for i := 0; i < spec.Size; i++ {
		if i%spec.TamperEvery == spec.TamperOffset {
			tampered++
		}
	}
	s := a.Summary
	if s.Tampered != tampered || s.Caught != tampered || s.FalseAlarms != 0 {
		return fmt.Errorf("appraisal: tampered %d caught %d false alarms %d, want %d %d 0",
			s.Tampered, s.Caught, s.FalseAlarms, tampered, tampered)
	}
	hist := 0
	for _, n := range s.Hist {
		hist += n
	}
	if hist != spec.Size {
		return fmt.Errorf("appraisal: latency histogram sums to %d, want %d", hist, spec.Size)
	}
	if want := min(sampleK, tampered); len(a.Sample) != want {
		return fmt.Errorf("appraisal: %d sampled anomalies, want %d", len(a.Sample), want)
	}
	labels := map[string]bool{}
	for _, sh := range spec.Shares {
		labels[sh.Name] = true
	}
	for _, e := range a.Sample {
		if e.Index < 0 || e.Index >= spec.Size || e.Index%spec.TamperEvery != spec.TamperOffset ||
			e.Reason != "caught" || !labels[e.Share] {
			return fmt.Errorf("appraisal: sampled anomaly index %d reason %q share %q is not a caught tampered device of a posted share",
				e.Index, e.Reason, e.Share)
		}
	}
	return nil
}

// topology is the part of a /topology body the checks read.
type topology struct {
	Schema       string `json:"schema"`
	Endpoint     string `json:"endpoint"`
	Seed         int64  `json:"seed"`
	Kind         string `json:"kind"`
	Size         int    `json:"size"`
	Mode         string `json:"mode"`
	Faults       string `json:"faults"`
	ConfigDigest string `json:"config_digest"`
	Cell         struct {
		Topology string
		Mode     string
		Infected int
		Saved    int
		Informed int
	} `json:"cell"`
	Events []struct {
		At   int64
		Kind string
	} `json:"events"`
}

// checkCell validates one /topology body for c, with digest the
// response's X-Cres-Digest header.
func checkCell(body []byte, digest string, c cell) error {
	var t topology
	if err := json.Unmarshal(body, &t); err != nil {
		return fmt.Errorf("cell %v: %w", c, err)
	}
	if t.Schema != bodySchema || t.Endpoint != "topology" || t.Seed != c.Seed || t.Kind != c.Kind ||
		t.Size != c.Size || t.Mode != c.Mode || t.Faults != c.Faults ||
		t.Cell.Topology != c.Kind || t.Cell.Mode != c.Mode {
		return fmt.Errorf("cell %v: envelope does not echo the request", c)
	}
	if !digestRE.MatchString(digest) || t.ConfigDigest != digest {
		return fmt.Errorf("cell %v: config_digest %q, header %q", c, t.ConfigDigest, digest)
	}
	if t.Cell.Infected+t.Cell.Saved != c.Size || t.Cell.Infected < 1 {
		return fmt.Errorf("cell %v: infected %d + saved %d, want %d with at least one infected",
			c, t.Cell.Infected, t.Cell.Saved, c.Size)
	}
	if t.Cell.Informed < 0 || t.Cell.Informed > c.Size || (c.Mode == "baseline" && t.Cell.Informed != 0) {
		return fmt.Errorf("cell %v: informed %d out of range", c, t.Cell.Informed)
	}
	for i := 1; i < len(t.Events); i++ {
		if t.Events[i].At < t.Events[i-1].At {
			return fmt.Errorf("cell %v: event %d at %d precedes event %d at %d",
				c, i, t.Events[i].At, i-1, t.Events[i-1].At)
		}
	}
	return nil
}

// checkPair validates both bodies of one lockstep cell pair: each on
// its own, and the two byte-identical.
func checkPair(a, b []byte, digestA, digestB string, c cell) error {
	if err := checkCell(a, digestA, c); err != nil {
		return err
	}
	if !bytes.Equal(a, b) || digestA != digestB {
		return fmt.Errorf("cell %v: the two bodies of the pair differ", c)
	}
	return nil
}

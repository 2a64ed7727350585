package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"cres"
	"cres/internal/attest"
	"cres/internal/cryptoutil"
	"cres/internal/fleet"
	"cres/internal/harness"
	"cres/internal/hw"
	"cres/internal/m2m"
	"cres/internal/scenario"
	"cres/internal/service"
	"cres/internal/sim"
	"cres/internal/store"
	"cres/internal/tpm"
)

// Traced-run sizes. Every traced run replays cold appraisals, hits and
// cells in the same amounts, whichever workload it is named for, so
// each group's figures rest on the same samples in every traced run: at
// least ten spans per cold-path call, 8,000 hits and a whole round of
// 36 cells. A traced run costs about as much as an untraced one and its
// span set stays a few megabytes.
const (
	tracedOpens     = 3       // store.Open replays of the history
	tracedColdReqs  = 10      // cold appraisals, each also replayed step by step
	tracedHotReqs   = 1000    // hits per hot pass
	tracedHotRounds = 4       // untraced-traced-traced-untraced rounds of hot passes
	tracedLoopback  = 2000    // hits timed over a loopback listener
	tracedProbeDevs = 32      // devices and SoCs built by the simulator probes
	tracedSigs      = 256     // stdlib ed25519 signatures and verifications
	tracedE9Txs     = 200_000 // E9's own default
	tracedE9Runs    = 7       // E9 runs; each bus row reports the median
	verifyBatch     = 256     // the fleet engine's default batch size
)

// tracer replays cold appraisals, hits and cells in process and records a
// span around every call into a layer.
type tracer struct {
	cfg    config
	rec    *recorder
	tally  *tally
	srv    *service.Server
	st     *store.Store
	pool   *harness.Pool
	fleet  fleetSpec
	spec   []byte
	cold   *seedSource
	hot    []int64
	hotExp map[int64][]byte
	script *cellScript

	mu       sync.Mutex
	reqs     int
	computed float64 // /statz computed ÷ requests over the pair replay
	e9       map[string]float64
	hitLoop  []float64 // loopback hit latencies, µs
}

// req hands out a request id for the spans of one replayed request.
func (t *tracer) req() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// serve sends one request through Server.Handler() in process under a
// span of the given name.
func (t *tracer) serve(name, method, target string, body []byte, req int) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(method, target, bytes.NewReader(body))
	id := t.rec.start(name, noSpan, req)
	t.srv.Handler().ServeHTTP(w, r)
	t.rec.end(id)
	return w
}

func recorded(w *httptest.ResponseRecorder) reply {
	return reply{w.Code, w.Header().Get("X-Cres-Digest"), w.Header().Get("X-Cres-Cache"), w.Body.Bytes()}
}

// lower turns a posted spec into scenario.FleetSpec. An absent
// firmware_payload lowers to nil, so scenario.DeviceSpec's reference
// firmware applies, as that type documents.
func lower(fs fleetSpec) scenario.FleetSpec {
	spec := scenario.FleetSpec{Name: fs.Name, Size: fs.Size, TamperEvery: fs.TamperEvery, TamperOffset: fs.TamperOffset}
	for _, sh := range fs.Shares {
		var payload []byte
		if sh.FirmwarePayload != "" {
			payload = []byte(sh.FirmwarePayload)
		}
		spec.Shares = append(spec.Shares, scenario.FleetShare{
			Device:   scenario.DeviceSpec{Name: sh.Name, FirmwareVersion: sh.FirmwareVersion, FirmwarePayload: payload},
			Fraction: sh.Fraction,
		})
	}
	return spec
}

// front replays the request-side steps every /appraise handler runs:
// decode, compile, digest and store lookup. The lookup is keyed on
// served, the X-Cres-Digest the handler returned for the same request,
// when there is one, so the replay finds what the service stored even
// if the service lowers a spec differently; otherwise on the digest the
// replay computed.
func (t *tracer) front(root, req int, seed int64, served string) (*scenario.CompiledFleet, store.Key, store.Record, bool, error) {
	var fs fleetSpec
	var err error
	t.rec.around("service.decode", root, req, func() {
		dec := json.NewDecoder(bytes.NewReader(t.spec))
		dec.DisallowUnknownFields()
		err = dec.Decode(&fs)
	})
	if err != nil {
		return nil, store.Key{}, store.Record{}, false, err
	}
	var cf *scenario.CompiledFleet
	t.rec.around("scenario.fleet_compile", root, req, func() { cf, err = lower(fs).Compile() })
	if err != nil {
		return nil, store.Key{}, store.Record{}, false, err
	}
	var digest string
	t.rec.around("store.digest", root, req, func() { digest = store.DigestBytes(cf.Config.AppendCanonical(nil)) })
	if served != "" {
		digest = served
	}
	key := store.Key{Experiment: "appraise", Seed: seed, Digest: digest}
	var rec store.Record
	var ok bool
	t.rec.around("store.get", root, req, func() { rec, ok = t.st.Get(key) })
	return cf, key, rec, ok, nil
}

// sampleEntry mirrors one resolved anomaly of an /appraise body.
type sampleEntry struct {
	Index     int    `json:"index"`
	Reason    string `json:"reason"`
	Share     string `json:"share"`
	LatencyNs int64  `json:"latency_ns"`
}

// missReplay replays a cold /appraise miss step by step through the
// public calls the handler makes, with RunParallel's fan-out and merge
// spelled out so each shard and merge gets its own span. The replayed
// body is held to the same checks as the service's.
func (t *tracer) missReplay(req int, seed int64) error {
	root := t.rec.start("service.miss", noSpan, req)
	defer t.rec.end(root)
	cf, key, _, _, err := t.front(root, req, seed, "")
	if err != nil {
		return err
	}
	var eng *fleet.Engine
	t.rec.around("fleet.engine_build", root, req, func() { eng, err = cf.Engine(seed) })
	if err != nil {
		return err
	}
	rp := t.rec.start("harness.run_parallel", root, req)
	outs, err := harness.Map(t.pool, eng.NumShards(), seed, func(sh harness.Shard) (fleet.Summary, error) {
		id := t.rec.start("fleet.run_shard", rp, req)
		defer t.rec.end(id)
		return eng.RunShard(sh.Index)
	})
	var sum fleet.Summary
	for _, o := range outs {
		t.rec.around("fleet.merge", rp, req, func() { sum = sum.Merge(o) })
	}
	t.rec.end(rp)
	if err != nil {
		return err
	}
	var body []byte
	t.rec.around("service.encode", root, req, func() {
		sample := make([]sampleEntry, 0, len(sum.Sample))
		for _, a := range sum.Sample {
			sample = append(sample, sampleEntry{a.Index, fleet.ReasonString(a.Reason),
				cf.Config.Shares[eng.ShareOf(a.Index)].Label, a.Latency.Nanoseconds()})
		}
		body, err = json.Marshal(map[string]any{
			"schema": bodySchema, "endpoint": "appraise", "fleet": cf.Spec.Name,
			"devices": cf.Config.Size, "shards": eng.NumShards(), "seed": seed,
			"config_digest": key.Digest, "summary": sum, "sample": sample,
		})
	})
	if err != nil {
		return err
	}
	if err := checkAppraisal(body, key.Digest, t.fleet, seed); err != nil {
		return fmt.Errorf("replayed miss: %w", err)
	}
	t.rec.around("store.append", root, req, func() {
		err = t.st.Append(store.Record{Experiment: "appraise-replay", Seed: seed, Digest: key.Digest, Body: string(body)})
	})
	return err
}

// pipeline runs one verifier shard's worth of devices through the
// fleet's hot path by hand: the device side signs each quote with
// BatchAppraiser.SignFast, and the verifier side queues every signature
// with its R hint and settles a batch of 256 with one Flush. Tampered
// devices (index mod 8 = 3) boot the implant and must come out
// untrusted, every other device trusted.
func (t *tracer) pipeline(cf *scenario.CompiledFleet, req int, seed int64) error {
	allowed := map[cryptoutil.Digest]bool{fleet.MeasurementROM: true, fleet.MeasurementPolicy: true}
	for _, sh := range cf.Config.Shares {
		allowed[sh.Firmware] = true
	}
	policy := &attest.Policy{AllowedMeasurements: allowed}
	var variants []*attest.BatchAppraiser
	boot := func(fw cryptoutil.Digest, desc string) error {
		log := []tpm.LogEntry{
			{PCR: tpm.PCRBootROM, Measurement: fleet.MeasurementROM, Desc: "rom"},
			{PCR: tpm.PCRFirmware, Measurement: fw, Desc: desc},
			{PCR: tpm.PCRPolicy, Measurement: fleet.MeasurementPolicy, Desc: "policy"},
		}
		ca, err := policy.CompileAppraisal(log, attest.PCRSelection, 16)
		if err == nil {
			variants = append(variants, ca.Batch())
		}
		return err
	}
	for _, sh := range cf.Config.Shares {
		if err := boot(sh.Firmware, sh.FirmwareDesc); err != nil {
			return err
		}
	}
	if err := boot(fleet.MeasurementImplant, "???"); err != nil {
		return err
	}
	implant := len(variants) - 1

	var signer cryptoutil.VartimeSigner
	coeff := cryptoutil.NewDeterministicEntropy(nil)
	bv := cryptoutil.NewBatchVerifier(coeff)
	type quote struct {
		v     int
		nonce [16]byte
		sig   [64]byte
		hint  cryptoutil.RHint
	}
	qs := make([]quote, verifyBatch)
	var seedBuf [16]byte
	for lo := 0; lo < shardSize; lo += verifyBatch {
		binary.BigEndian.PutUint64(seedBuf[:8], uint64(seed))
		binary.BigEndian.PutUint64(seedBuf[8:], uint64(lo))
		key := sha256.Sum256(seedBuf[:])
		signer.Init(key[:])
		for j := range qs {
			i := lo + j
			qs[j].v = i % (len(variants) - 1)
			if i%t.fleet.TamperEvery == t.fleet.TamperOffset {
				qs[j].v = implant
			}
			binary.BigEndian.PutUint64(qs[j].nonce[:8], uint64(seed))
			binary.BigEndian.PutUint64(qs[j].nonce[8:], uint64(i))
		}
		var err error
		t.rec.around("attest.sign_fast", noSpan, req, func() {
			for j := range qs {
				q := &qs[j]
				if q.sig, q.hint, err = variants[q.v].SignFast(&signer, q.nonce[:]); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		var ok []bool
		t.rec.around("cryptoutil.batch_verify", noSpan, req, func() {
			coeff.Reset(key[16:])
			bv.Reset(coeff)
			for j := range qs {
				q := &qs[j]
				if err = variants[q.v].Enqueue(bv, signer.Public(), q.nonce[:], q.sig[:], &q.hint); err != nil {
					return
				}
			}
			ok = bv.Flush()
		})
		if err != nil {
			return err
		}
		for j, q := range qs {
			trusted := variants[q.v].Resolve(ok[j]) == nil
			if !ok[j] || trusted != (q.v != implant) {
				return fmt.Errorf("pipeline: device %d signature ok %v trusted %v", lo+j, ok[j], trusted)
			}
		}
	}
	return nil
}

// coldPass replays a cold appraisal n times: a fresh-seed miss through
// the handler, another fresh-seed miss replayed step by step, and one
// shard of devices through the sign/verify pipeline.
func (t *tracer) coldPass(n int) {
	for i := 0; i < n; i++ {
		seed := t.cold.next()
		req := t.req()
		w := t.serve("service.handler_miss", "POST", "/appraise?seed="+strconv.FormatInt(seed, 10), t.spec, req)
		r := recorded(w)
		err := r.expect("miss")
		if err == nil {
			err = checkAppraisal(r.body, r.digest, t.fleet, seed)
		}
		t.tally.record(err)
		seed = t.cold.next()
		t.tally.record(t.missReplay(req, seed))
		cf, cerr := lower(t.fleet).Compile()
		if cerr == nil {
			cerr = t.pipeline(cf, req, seed)
		}
		t.tally.record(cerr)
	}
}

// hotSetup stores the appraise-hot seeds through the handler.
func (t *tracer) hotSetup() {
	for _, seed := range t.hot {
		w := t.serve("service.handler_miss", "POST", "/appraise?seed="+strconv.FormatInt(seed, 10), t.spec, t.req())
		r := recorded(w)
		err := r.expect("miss")
		if err == nil {
			err = checkAppraisal(r.body, r.digest, t.fleet, seed)
		}
		t.tally.record(err)
		if err == nil {
			t.hotExp[seed] = r.body
		}
	}
}

// hotPass replays appraise-hot n times: a hit through the handler and
// the request side of the same hit step by step.
func (t *tracer) hotPass(n int) {
	for i := 0; i < n; i++ {
		seed := t.hot[i%len(t.hot)]
		req := t.req()
		w := t.serve("service.handler_hit", "POST", "/appraise?seed="+strconv.FormatInt(seed, 10), t.spec, req)
		r := recorded(w)
		err := r.expect("hit")
		if err == nil && !bytes.Equal(r.body, t.hotExp[seed]) {
			err = fmt.Errorf("in-process hit at seed %d differs from its set-up miss", seed)
		}
		if err == nil {
			root := t.rec.start("service.hit", noSpan, req)
			_, _, rec, ok, ferr := t.front(root, req, seed, r.digest)
			t.rec.end(root)
			err = ferr
			if err == nil && (!ok || rec.Body+"\n" != string(t.hotExp[seed])) {
				err = fmt.Errorf("replayed hit at seed %d: stored body differs from the served one", seed)
			}
		}
		t.tally.record(err)
	}
}

// loopbackPass sends appraise-hot's hits over a loopback listener, for
// the transport's share of a hit.
func (t *tracer) loopbackPass() {
	ts := httptest.NewServer(t.srv.Handler())
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()
	for i := 0; i < tracedLoopback; i++ {
		seed := t.hot[i%len(t.hot)]
		t0 := time.Now()
		r, err := c.do("POST", "/appraise?seed="+strconv.FormatInt(seed, 10), t.spec)
		lat := time.Since(t0)
		if err == nil {
			err = r.expect("hit")
		}
		if err == nil && !bytes.Equal(r.body, t.hotExp[seed]) {
			err = fmt.Errorf("loopback hit at seed %d differs from its set-up miss", seed)
		}
		t.tally.record(err)
		t.hitLoop = append(t.hitLoop, float64(lat)/1e3)
	}
}

// pairPass replays one round of the topology-pair script: each cell
// through the handler from two goroutines at once, the cell again
// through cres.RunSwarmUnderFaults, and the simulator-layer probes.
func (t *tracer) pairPass() {
	levels := map[string]scenario.FaultSpec{}
	for _, lv := range cres.DefaultFaultLevels() {
		levels[lv.Name] = lv.Spec
	}
	before := t.srv.Stats()
	for _, c := range t.script.round() {
		req := t.req()
		var ws [2]*httptest.ResponseRecorder
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ws[i] = t.serve("service.handler_cell", "GET", c.query(), nil, req)
			}(i)
		}
		wg.Wait()
		var err error
		if ws[0].Code != http.StatusOK || ws[1].Code != http.StatusOK {
			err = fmt.Errorf("cell %v: status %d and %d", c, ws[0].Code, ws[1].Code)
		} else {
			err = checkPair(ws[0].Body.Bytes(), ws[1].Body.Bytes(),
				ws[0].Header().Get("X-Cres-Digest"), ws[1].Header().Get("X-Cres-Digest"), c)
		}
		t.tally.record(err)

		topo := scenario.TopologySpec{Kind: c.Kind, Size: c.Size, Fanout: c.Fanout, Seed: c.Seed}
		var out *cres.SwarmOutcome
		t.rec.around("cres.swarm_cell", noSpan, req, func() {
			out, err = cres.RunSwarmUnderFaults(topo, 2*time.Millisecond, c.Mode, "secure-probe", c.Seed, levels[c.Faults])
		})
		if err == nil {
			digest := ws[0].Header().Get("X-Cres-Digest")
			var body []byte
			body, err = json.Marshal(map[string]any{
				"schema": bodySchema, "endpoint": "topology", "seed": c.Seed, "kind": c.Kind,
				"size": c.Size, "mode": c.Mode, "faults": c.Faults, "config_digest": digest,
				"cell": out.Cell, "events": out.Events,
			})
			if err == nil {
				err = checkCell(body, digest, c)
			}
		}
		t.tally.record(err)
	}
	after := t.srv.Stats()
	t.computed = float64(after.Computed-before.Computed) / float64(after.Requests-before.Requests)
	t.tally.record(t.simProbes())
}

// simProbes builds devices and SoCs the way a swarm cell does, runs
// E9's bus rows and times stdlib ed25519 on gossip-sized messages.
func (t *tracer) simProbes() error {
	req := t.req()
	eng := sim.New(t.cfg.seed)
	net := m2m.NewNetwork(eng, m2m.Config{})
	for k := 0; k < tracedProbeDevs; k++ {
		var err error
		t.rec.around("cres.device_build", noSpan, req, func() {
			_, err = cres.NewDeviceFromSpec(scenario.DeviceSpec{Name: fmt.Sprintf("probe-%02d", k), Arch: scenario.ArchCRES},
				cres.WithEngine(eng), cres.WithNetwork(net))
		})
		if err != nil {
			return err
		}
		t.rec.around("hw.soc_build", noSpan, req, func() {
			_, err = hw.NewSoC(sim.New(int64(k)), hw.SoCConfig{WithSSMCore: true})
		})
		if err != nil {
			return err
		}
	}
	rows := map[string][]float64{}
	for k := 0; k < tracedE9Runs; k++ {
		var e9 *cres.E9Result
		var err error
		t.rec.around("cres.e9", noSpan, req, func() { e9, err = cres.RunE9MonitorOverhead(tracedE9Txs) })
		if err != nil {
			return err
		}
		for _, row := range e9.Rows {
			rows[row.Config] = append(rows[row.Config], row.WallNsPerTx)
		}
	}
	t.e9 = map[string]float64{}
	for cfg, xs := range rows {
		t.e9[cfg] = median(xs)
	}
	kp, err := cryptoutil.KeyPairFromSeed(cryptoutil.DeriveKey([]byte("perfbench"), "gossip", "", 32))
	if err != nil {
		return err
	}
	pub := kp.Public()
	rng := rand.New(rand.NewSource(t.cfg.seed))
	for k := 0; k < tracedSigs; k++ {
		var msg cryptoutil.Digest // a gossip message signs its 32-byte digest
		rng.Read(msg[:])
		var sig []byte
		t.rec.around("cryptoutil.ed25519_sign", noSpan, req, func() { sig = kp.Sign(msg[:]) })
		var ok bool
		t.rec.around("cryptoutil.ed25519_verify", noSpan, req, func() { ok = pub.Verify(msg[:], sig) })
		if !ok {
			return fmt.Errorf("ed25519 probe: signature %d did not verify", k)
		}
	}
	return nil
}

// spanCost is the recorder's own cost per span in seconds: the median
// over five batches of recording spanCostBatch empty spans into a
// scratch recorder.
func spanCost() float64 {
	const spanCostBatch = 50_000
	var per []float64
	for b := 0; b < 5; b++ {
		r := newRecorder()
		r.on = true
		t0 := time.Now()
		for i := 0; i < spanCostBatch; i++ {
			r.end(r.start("probe", noSpan, i))
		}
		per = append(per, time.Since(t0).Seconds()/spanCostBatch)
	}
	return median(per)
}

// runTraced is the per-layer run. It opens the seeded history in
// process, then replays cold appraisals, hits and cells with spans, the
// same replay whichever workload is named. The tracing overhead is
// taken on the hot replay, the one with the densest spans: the
// recorder's cost per span times the spans one traced hot pass records,
// over the median time of an untraced hot pass. The hot passes
// alternate untraced, traced, traced, untraced; their wall times differ
// by less than the host's noise, so they are printed to standard error
// only, as a cross-check.
func runTraced(cfg config) (result, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	hist := filepath.Join(dir, "history")
	if err := writeHistory(hist, cfg.seed, cfg.parallel); err != nil {
		return result{}, err
	}
	rec := newRecorder()
	rec.on = true

	var st *store.Store
	var heapMB float64
	for k := 0; k < tracedOpens; k++ {
		sd := filepath.Join(dir, fmt.Sprintf("store-%d", k))
		if err := copyStore(hist, sd); err != nil {
			return result{}, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var s *store.Store
		var err error
		rec.around("store.open", noSpan, 0, func() { s, err = store.Open(sd) })
		if err != nil {
			return result{}, err
		}
		if k < tracedOpens-1 {
			s.Close()
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heapMB = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20)
		st = s
	}
	defer st.Close()
	srv, err := service.New(service.Config{Store: st, Parallel: cfg.parallel})
	if err != nil {
		return result{}, err
	}
	fl := benchFleet()
	spec, err := json.Marshal(fl)
	if err != nil {
		return result{}, err
	}
	t := &tracer{
		cfg: cfg, rec: rec, tally: &tally{}, srv: srv, st: st, pool: harness.NewPool(cfg.parallel),
		fleet: fl, spec: spec, cold: newSeedSource(cfg.seed, streamCold), hotExp: map[int64][]byte{},
		script: newCellScript(cfg.seed, streamCells),
	}
	hot := newSeedSource(cfg.seed, streamHot)
	for i := 0; i < hotSeeds; i++ {
		t.hot = append(t.hot, hot.next())
	}
	t.hotSetup()

	// One untraced cold request and hot pass warm up the engines and
	// the store; a steady drift then falls on both sides of each
	// untraced-traced-traced-untraced round.
	rec.on = false
	t.coldPass(1)
	t.hotPass(tracedHotReqs)
	var untraced, traced []float64
	hotSpans := 0
	for i := 0; i < tracedHotRounds; i++ {
		for _, on := range []bool{false, true, true, false} {
			rec.on = on
			n0 := len(rec.spans)
			t0 := time.Now()
			t.hotPass(tracedHotReqs)
			if on {
				traced = append(traced, time.Since(t0).Seconds())
				hotSpans += len(rec.spans) - n0
			} else {
				untraced = append(untraced, time.Since(t0).Seconds())
			}
		}
	}
	perSpan := spanCost()
	rec.on = true
	t.loopbackPass()
	t.coldPass(tracedColdReqs)
	t.pairPass()
	rec.on = false

	if err := rec.write(filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return result{}, err
	}
	if t.tally.first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.tally.failed, t.tally.attempted, t.tally.first)
	}
	lt := selfTimes(rec.spans)
	signed := float64(len(lt.self["attest.sign_fast"]) * verifyBatch)
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	var missOver []float64
	for i, m := range lt.total["service.miss"] {
		if i < len(lt.total["harness.run_parallel"]) {
			missOver = append(missOver, m-lt.total["harness.run_parallel"][i])
		}
	}
	hitUs := median(lt.total["service.handler_hit"]) / 1e3
	vals := map[string]float64{
		"attest.sign_us_per_device":       sum(lt.self["attest.sign_fast"]) / signed / 1e3,
		"cryptoutil.verify_us_per_device": sum(lt.self["cryptoutil.batch_verify"]) / signed / 1e3,
		"fleet.shard_ms":                  median(lt.total["fleet.run_shard"]) / 1e6,
		"fleet.engine_build_us":           median(lt.self["fleet.engine_build"]) / 1e3,
		"fleet.merge_us":                  median(lt.self["fleet.merge"]) / 1e3,
		"harness.parallel_efficiency": sum(lt.total["fleet.run_shard"]) /
			(float64(t.pool.Workers()) * sum(lt.total["harness.run_parallel"])),
		"service.miss_overhead_ms":     median(missOver) / 1e6,
		"store.append_us":              median(lt.self["store.append"]) / 1e3,
		"scenario.fleet_compile_us":    median(lt.self["scenario.fleet_compile"]) / 1e3,
		"store.digest_us":              median(lt.self["store.digest"]) / 1e3,
		"store.get_us":                 median(lt.self["store.get"]) / 1e3,
		"service.hit_handler_us":       hitUs,
		"service.transport_us":         quantile(t.hitLoop, 0.5) - hitUs,
		"cres.swarm_cell_ms":           median(lt.total["cres.swarm_cell"]) / 1e6,
		"cres.device_build_us":         median(lt.total["cres.device_build"]) / 1e3,
		"hw.soc_build_us":              median(lt.total["hw.soc_build"]) / 1e3,
		"hw.bus_ns_per_tx":             t.e9["no-monitoring"],
		"monitor.bus_ns_per_tx":        t.e9["bus-monitor"],
		"cryptoutil.ed25519_sign_us":   median(lt.total["cryptoutil.ed25519_sign"]) / 1e3,
		"cryptoutil.ed25519_verify_us": median(lt.total["cryptoutil.ed25519_verify"]) / 1e3,
		"service.computed_per_req":     t.computed,
		"store.open_s":                 median(lt.total["store.open"]) / 1e9,
		"store.heap_mb":                heapMB,
		"trace.overhead_pct":           100 * perSpan * float64(hotSpans) / float64(len(traced)) / median(untraced),
	}
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: span %-32s n=%-6d self median %10.1f us\n", n, len(lt.self[n]), median(lt.self[n])/1e3)
	}
	fmt.Fprintf(os.Stderr, "perfbench: hot pass of %d hits: untraced median %.4fs, traced median %.4fs, %d spans at %.1f ns each\n",
		tracedHotReqs, median(untraced), median(traced), hotSpans/len(traced), perSpan*1e9)
	return newResult(perLayer, vals, t.tally.attempted, t.tally.failed)
}

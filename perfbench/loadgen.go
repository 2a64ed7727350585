package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	cresd    string // path of the cresd binary
	workDir  string // scratch space inside the checkout
	parallel int    // cresd -parallel
}

// setupStarts is how many times a run sets cresd up: starts it on a
// fresh copy of the history and sends the warm-up requests. setup_s
// takes the median set-up.
const setupStarts = 5

// client is one closed-loop load-generator connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one response as the checks see it.
type reply struct {
	status int
	digest string
	cache  string
	body   []byte
}

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{resp.StatusCode, resp.Header.Get("X-Cres-Digest"), resp.Header.Get("X-Cres-Cache"), out}, nil
}

// expect checks the status and cache tag common to every benchmark
// response.
func (r reply) expect(cache string) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	if r.cache != cache {
		return fmt.Errorf("X-Cres-Cache %q, want %q", r.cache, cache)
	}
	return nil
}

// tally counts operations and keeps the first failure. Safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     error
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

// sample is one timed operation: its latency and the devices its
// response covers (0 when it failed).
type sample struct {
	latency time.Duration
	devices int
}

// chunk is one slice of a timed phase: its wall time, the requests
// and devices it completed and the CPU time cresd spent in it. Rates
// are medians over chunks, so a host stall in one slice of a run moves
// one chunk, not the run's figure.
type chunk struct {
	wall      time.Duration
	completed int
	devices   int
	cpu       time.Duration
}

// phase is what a timed phase measured.
type phase struct {
	samples []sample
	chunks  []chunk
	wall    time.Duration
}

// hotChunk is the length of one chunk of hits; the pair workload's
// chunk is one round of the cell script.
const hotChunk = time.Second

// chunker cuts a timed phase into chunks.
type chunker struct {
	cpu  func() (time.Duration, error)
	t    time.Time
	c    time.Duration
	done int // completed requests at the last cut
	devs int // devices at the last cut
	err  error
}

func newChunker(cpu func() (time.Duration, error)) *chunker {
	k := &chunker{cpu: cpu, t: time.Now()}
	k.c, k.err = cpu()
	return k
}

// cut closes the chunk that ends now, given the phase's running totals
// of completed requests and devices.
func (k *chunker) cut(completed, devices int) chunk {
	now := time.Now()
	c, err := k.cpu()
	if err != nil && k.err == nil {
		k.err = err
	}
	ch := chunk{wall: now.Sub(k.t), completed: completed - k.done, devices: devices - k.devs, cpu: c - k.c}
	k.t, k.c, k.done, k.devs = now, c, completed, devices
	return ch
}

// totals counts the completed requests and covered devices of samples.
func totals(samples []sample) (completed, devices int) {
	for _, s := range samples {
		if s.devices > 0 {
			completed++
			devices += s.devices
		}
	}
	return completed, devices
}

// loadgen runs one workload against one cresd.
type loadgen struct {
	cfg     config
	tally   *tally
	clients []*client
	spec    []byte
	fleet   fleetSpec
	hot     []int64
	hotBody map[int64][]byte
	hotDig  string
	script  *cellScript
	warm    []cell // the pair workload's warm-up cells
}

func newLoadgen(cfg config, t *tally) (*loadgen, error) {
	fl := benchFleet()
	spec, err := json.Marshal(fl)
	if err != nil {
		return nil, err
	}
	dr := &loadgen{cfg: cfg, tally: t, spec: spec, fleet: fl, hotBody: map[int64][]byte{}}
	hot := newSeedSource(cfg.seed, streamHot)
	for i := 0; i < hotSeeds; i++ {
		dr.hot = append(dr.hot, hot.next())
	}
	dr.script = newCellScript(cfg.seed, streamCells)
	dr.warm = warmCells(cfg.seed)
	return dr, nil
}

// connect replaces the load generator's two clients with fresh ones for
// the cresd at base. The pair workload needs both, to send each cell
// twice at once.
func (dr *loadgen) connect(base string) {
	dr.close()
	dr.clients = nil
	for i := 0; i < 2; i++ {
		dr.clients = append(dr.clients, newClient(base))
	}
}

func (dr *loadgen) close() {
	for _, c := range dr.clients {
		c.close()
	}
}

func (dr *loadgen) appraisePath(seed int64) string {
	return "/appraise?seed=" + strconv.FormatInt(seed, 10)
}

// hotOnce posts the bench fleet at a stored seed and checks that the
// hit is byte-identical to the set-up miss.
func (dr *loadgen) hotOnce(c *client, seed int64) sample {
	t0 := time.Now()
	r, err := c.do("POST", dr.appraisePath(seed), dr.spec)
	lat := time.Since(t0)
	if err == nil {
		err = r.expect("hit")
	}
	if err == nil && (r.digest != dr.hotDig || !bytes.Equal(r.body, dr.hotBody[seed])) {
		err = fmt.Errorf("hit at seed %d is not byte-identical to its set-up miss", seed)
	}
	dr.tally.record(err)
	if err != nil {
		return sample{latency: lat}
	}
	return sample{latency: lat, devices: dr.fleet.Size}
}

// pairOnce sends one cell from both clients at once and checks both
// bodies. It returns one sample per client.
func (dr *loadgen) pairOnce(c cell) [2]sample {
	var rs [2]reply
	var errs [2]error
	var lats [2]time.Duration
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			rs[i], errs[i] = dr.clients[i].do("GET", c.query(), nil)
			lats[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	var out [2]sample
	for i := range rs {
		err := errs[i]
		if err == nil {
			// Either copy may be the one computed first; the other may
			// legitimately be a hit once coalescing or a fast store
			// answers it, so only the status is held to a fixed value.
			if rs[i].status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", rs[i].status, rs[i].body)
			}
		}
		if err == nil {
			err = checkPair(rs[i].body, rs[1-i].body, rs[i].digest, rs[1-i].digest, c)
		}
		dr.tally.record(err)
		out[i] = sample{latency: lats[i]}
		if err == nil {
			out[i].devices = c.Size
		}
	}
	return out
}

// warmUp sends the workload's set-up requests to a freshly started
// cresd: the eight hot seeds, which the fresh store misses, plus a hit
// per seed on each client; or the three warm-up cells, each as a pair.
func (dr *loadgen) warmUp() {
	switch dr.cfg.workload {
	case workHot:
		c := dr.clients[0]
		for _, seed := range dr.hot {
			r, err := c.do("POST", dr.appraisePath(seed), dr.spec)
			if err == nil {
				err = r.expect("miss")
			}
			if err == nil {
				err = checkAppraisal(r.body, r.digest, dr.fleet, seed)
			}
			if want, ok := dr.hotBody[seed]; err == nil && ok && !bytes.Equal(r.body, want) {
				err = fmt.Errorf("set-up miss at seed %d differs from the same miss after an earlier start", seed)
			}
			dr.tally.record(err)
			if err == nil {
				dr.hotBody[seed] = r.body
				dr.hotDig = r.digest
			}
		}
		for _, c := range dr.clients {
			for _, seed := range dr.hot {
				dr.hotOnce(c, seed)
			}
		}
	case workPair:
		for _, c := range dr.warm {
			dr.pairOnce(c)
		}
	}
}

// timed runs the workload's closed loop for the configured time, and
// past it until at least minSamples latencies are in, so that p90 has
// ten samples beyond it. The pair workload ends only on a whole round
// of its script.
func (dr *loadgen) timed(cpu func() (time.Duration, error)) (phase, error) {
	need := minSamples(tailQuantile, tailSamples)
	t0 := time.Now()
	done := func(n int) bool { return time.Since(t0) >= dr.cfg.seconds && n >= need }
	var ph phase
	k := newChunker(cpu)
	switch dr.cfg.workload {
	case workHot:
		var completed, devices atomic.Int64
		stop := make(chan struct{})
		var mu sync.Mutex
		var wg sync.WaitGroup
		for ci, c := range dr.clients {
			wg.Add(1)
			go func(ci int, c *client) {
				defer wg.Done()
				var mine []sample
				for i := ci; ; i++ {
					select {
					case <-stop:
						mu.Lock()
						ph.samples = append(ph.samples, mine...)
						mu.Unlock()
						return
					default:
					}
					s := dr.hotOnce(c, dr.hot[i%len(dr.hot)])
					mine = append(mine, s)
					if s.devices > 0 {
						devices.Add(int64(s.devices))
						completed.Add(1)
					}
				}
			}(ci, c)
		}
		tick := time.NewTicker(hotChunk)
		for !done(int(completed.Load())) {
			<-tick.C
			ph.chunks = append(ph.chunks, k.cut(int(completed.Load()), int(devices.Load())))
		}
		tick.Stop()
		close(stop)
		wg.Wait()
	case workPair:
		for !done(len(ph.samples)) {
			for _, c := range dr.script.round() {
				s := dr.pairOnce(c)
				ph.samples = append(ph.samples, s[0], s[1])
			}
			ph.chunks = append(ph.chunks, k.cut(totals(ph.samples)))
		}
	}
	ph.wall = time.Since(t0)
	return ph, k.err
}

// runUntraced is the end-to-end run: set cresd up setupStarts times,
// each time starting it on a fresh copy of the seeded history and
// warming it up, then drive the timed closed loop at the last one and
// read its own CPU time and peak RSS.
func runUntraced(cfg config) (result, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	hist := filepath.Join(dir, "history")
	if err := writeHistory(hist, cfg.seed, cfg.parallel); err != nil {
		return result{}, err
	}

	t := &tally{}
	dr, err := newLoadgen(cfg, t)
	if err != nil {
		return result{}, err
	}
	defer dr.close()
	var starts, warms, setups []float64
	var d *daemon
	for k := 0; k < setupStarts; k++ {
		sd := filepath.Join(dir, fmt.Sprintf("store-%d", k))
		if err := copyStore(hist, sd); err != nil {
			return result{}, err
		}
		var dt time.Duration
		if d, dt, err = startDaemon(cfg.cresd, sd, cfg.parallel); err != nil {
			return result{}, err
		}
		dr.connect(d.base)
		w0 := time.Now()
		dr.warmUp()
		warm := time.Since(w0)
		starts = append(starts, dt.Seconds())
		warms = append(warms, warm.Seconds())
		setups = append(setups, (dt + warm).Seconds())
		if k < setupStarts-1 {
			dr.close()
			if err := d.stop(); err != nil {
				return result{}, err
			}
			os.RemoveAll(sd)
		}
	}
	var res result
	err = func() error {
		defer d.stop()

		ph, err := dr.timed(d.cpuTime)
		if err != nil {
			return err
		}
		rss, err := d.peakRSS()
		if err != nil {
			return err
		}
		if t.first != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.first)
		}
		var lat, rps, dps, cpr []float64
		for _, s := range ph.samples {
			lat = append(lat, float64(s.latency)/1e6)
		}
		for _, ch := range ph.chunks {
			rps = append(rps, float64(ch.completed)/ch.wall.Seconds())
			dps = append(dps, float64(ch.devices)/ch.wall.Seconds())
			cpr = append(cpr, float64(ch.cpu)/1e6/float64(max(ch.completed, 1)))
		}
		vals := map[string]float64{
			"setup_s":        median(setups),
			"req_per_s":      median(rps),
			"devices_per_s":  median(dps),
			"latency_p50_ms": quantile(lat, 0.5),
			"latency_p90_ms": quantile(lat, tailQuantile),
			"cpu_ms_per_req": median(cpr),
			"rss_peak_mb":    rss,
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d samples, %d chunks in %.2fs; medians of %d set-ups: start %.3fs, warm-up %.3fs\n",
			cfg.workload, cfg.seed, len(ph.samples), len(ph.chunks), ph.wall.Seconds(), len(setups), median(starts), median(warms))
		fmt.Fprintf(os.Stderr, "perfbench: req/s by chunk %.4g\n", rps)
		res, err = newResult(endToEnd, vals, t.attempted, t.failed)
		return err
	}()
	return res, err
}

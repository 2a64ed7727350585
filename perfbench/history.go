package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"cres/internal/service"
	"cres/internal/store"
)

// historyScript is the request script of the repository's CI
// service-gate job (.github/workflows/ci.yml), which starts cresd with
// -quick: one pass stores seven records — one /run table, five
// appraisals (two /appraise calls and a three-size /fleet sweep) and
// one topology cell. %d is the pass's seed.
var historyScript = []string{
	"/run?experiment=E2&seed=%d",
	"/appraise?size=256&seed=%d",
	"/appraise?size=1024&seed=%d",
	"/fleet?sizes=4,64,512&seed=%d",
	"/topology?kind=ring&size=8&seed=%d",
}

// History size. The history is historyPasses passes of historyScript,
// 24,500 records. The count is an assumption — tens of thousands of
// records, not a figure measured on any deployment. Computing every
// pass costs about 0.13 s, so only historyPoolSeeds passes are
// computed, and the other passes reuse their bodies under their own
// keys.
const (
	historyPasses    = 3500
	historyPoolSeeds = 8
)

// writeHistory writes a seeded result-store history into dir. An
// in-process service.Server with its own store answers historyScript at
// historyPoolSeeds seeds, so every body and every record line is what
// cresd itself writes. The history then appends, through store.Append,
// historyPasses passes: pass p re-keys the records of pool seed
// p mod historyPoolSeeds to seed streamHistory<<40 + p. The digests
// are the script's own, since a config digest excludes the seed; the
// bodies keep the pool seed they were computed at. No history key
// answers a benchmark request: the script's fleets and cells differ
// from the benchmark's, and the seeds lie in their own range.
func writeHistory(dir string, seed int64, parallel int) error {
	pool, err := historyPool(filepath.Join(dir, "pool"), seed, parallel)
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	unix := int64(1_780_000_000)
	for p := 0; p < historyPasses; p++ {
		for _, rec := range pool[p%historyPoolSeeds] {
			rec.Seed = int64(streamHistory)<<40 + int64(p)
			unix += 97
			rec.UnixTime = unix
			if err := st.Append(rec); err != nil {
				st.Close()
				return fmt.Errorf("history: %w", err)
			}
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(dir, "pool"))
}

// historyPool answers historyScript at historyPoolSeeds seeds through
// service.Server.Handler() over a store in dir and returns the stored
// records, grouped by seed in append order.
func historyPool(dir string, seed int64, parallel int) ([][]store.Record, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	srv, err := service.New(service.Config{Store: st, Parallel: parallel, Quick: true})
	if err != nil {
		return nil, err
	}
	seeds := newSeedSource(seed, streamHistory)
	var pool [][]store.Record
	for k := 0; k < historyPoolSeeds; k++ {
		before := st.Len()
		s := seeds.next()
		for _, path := range historyScript {
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf(path, s), nil))
			if w.Code != http.StatusOK {
				return nil, fmt.Errorf("history: %s: status %d: %.200s",
					strings.SplitN(path, "?", 2)[0], w.Code, w.Body.Bytes())
			}
		}
		recs := st.All()[before:]
		if len(recs) != 7 {
			return nil, fmt.Errorf("history: script pass at seed %d stored %d records, want 7", s, len(recs))
		}
		pool = append(pool, recs)
	}
	return pool, nil
}

// copyStore copies the history's store file into a fresh store
// directory dst.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	in, err := os.Open(filepath.Join(src, store.FileName))
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(filepath.Join(dst, store.FileName))
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

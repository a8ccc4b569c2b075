package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// httpOpts sizes one HTTP run.
type httpOpts struct {
	bin      string
	outDir   string
	seconds  float64
	setups   int // boots per run; setup_s is their median
	restarts int // recovery_s samples: restarts on the data dir, or boots
}

// httpRun collects everything one HTTP run measured.
type httpRun struct {
	setupS    []float64 // spawn → end of warm-up, per boot
	bootS     []float64 // spawn → readyz 200, per boot
	recoveryS []float64 // spawn → readyz 200: restarts on the data dir, or boots

	queryMs  []float64 // measured reads
	queryOf  []string  // name of each measured read
	updateMs []float64 // measured updates (read-write)
	ckptMs   []float64 // measured checkpoints (read-write)
	busyS    float64   // summed latency of measured requests
	ops      int       // measured requests: reads, updates and checkpoints
	blockRPS []float64 // per block of measured work: ops / summed latency

	blockOps   int
	blockBusyS float64

	peakRSSMB float64 // VmHWM of the measured boot, read after the loop

	// From each measured read's response meta.
	serverTotalMs, serializeMs, outsideMs, respBytes []float64
	gcovReads, cachedPlans                           int

	attempted, failed int
	failures          []string
	flags             []string
}

// endBlock closes a block of measured work (a warm pass, novelBlock novel
// queries, checkpointEvery read-write cycles and their checkpoint).
// throughput_rps is the median block rate, so one stall on the shared
// machine moves one block, not the run.
func (r *httpRun) endBlock() {
	if n := r.ops - r.blockOps; n > 0 {
		r.blockRPS = append(r.blockRPS, float64(n)/(r.busyS-r.blockBusyS))
	}
	r.blockOps, r.blockBusyS = r.ops, r.busyS
}

// novelBlock is the number of novel queries per throughput_rps block.
const novelBlock = 10

func (r *httpRun) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// queryResponse is the part of a /v1/query answer the client checks.
type queryResponse struct {
	Rows      [][]string `json:"rows"`
	Total     int        `json:"total"`
	Truncated bool       `json:"truncated"`
	Meta      struct {
		TotalMillis     float64 `json:"totalMillis"`
		SerializeMillis float64 `json:"serializeMillis"`
		CachedPlan      bool    `json:"cachedPlan"`
	} `json:"meta"`
}

// session is a booted server with its client.
type session struct {
	srv *server
	cl  *client
}

func (s *session) close() {
	s.cl.close()
	s.srv.stop()
}

// httpLoad runs one workload's traffic against refserve.
type httpLoad struct {
	w      workload
	orc    oracle
	opts   httpOpts
	run    *httpRun
	ctx    context.Context
	strat  string
	pass   []read
	novel  *novelGen
	rw     rwGen
	hashes map[int]rowHash // read-write: per-batch rows the read-your-write query gains
}

func newHTTPLoad(ctx context.Context, w workload, seed int64, orc oracle, opts httpOpts) *httpLoad {
	return &httpLoad{
		w: w, orc: orc, opts: opts, run: &httpRun{}, ctx: ctx, strat: w.strategy,
		pass: warmPass(seed, orc), novel: newNovelGen(seed), rw: newRWGen(seed), hashes: map[int]rowHash{},
	}
}

// boot spawns a server and waits for readiness.
func (d *httpLoad) boot(dataDir string) (*session, error) {
	srv, err := startServer(d.opts.bin, dataDir, filepath.Join(d.opts.outDir, "refserve.log"))
	if err != nil {
		return nil, err
	}
	d.run.flags = srv.flags
	ready, err := srv.waitReady(60 * time.Second)
	if err != nil {
		srv.stop()
		return nil, err
	}
	d.run.bootS = append(d.run.bootS, ready.Seconds())
	return &session{srv: srv, cl: newClient(srv.addr)}, nil
}

// query sends one read, checks its rows against want and, when measured,
// records its latency and meta.
func (d *httpLoad) query(s *session, rd read, want rowHash, measured bool) error {
	body, _ := json.Marshal(map[string]string{"query": rd.text, "strategy": d.strat}) // plain strings always marshal
	status, resp, lat, err := s.cl.do(d.ctx, http.MethodPost, "/v1/query", body)
	if err != nil {
		return err
	}
	d.run.attempted++
	nbytes := len(resp)
	var qr queryResponse
	switch {
	case status != http.StatusOK:
		d.run.fail("%s: status %d: %.200s", rd.name, status, resp)
		return nil
	case json.Unmarshal(resp, &qr) != nil:
		d.run.fail("%s: undecodable response", rd.name)
		return nil
	}
	var got rowHash
	for _, row := range qr.Rows {
		got.add(row)
	}
	if qr.Truncated || got.N != qr.Total || got != want {
		d.run.fail("%s: answer mismatch: got %d rows (total %d, truncated %v), want %d", rd.name, got.N, qr.Total, qr.Truncated, want.N)
	}
	if !measured {
		return nil
	}
	ms := float64(lat) / float64(time.Millisecond)
	d.run.queryMs = append(d.run.queryMs, ms)
	d.run.queryOf = append(d.run.queryOf, rd.name)
	d.run.busyS += lat.Seconds()
	d.run.ops++
	d.run.serverTotalMs = append(d.run.serverTotalMs, qr.Meta.TotalMillis)
	d.run.serializeMs = append(d.run.serializeMs, qr.Meta.SerializeMillis)
	d.run.outsideMs = append(d.run.outsideMs, ms-qr.Meta.TotalMillis)
	d.run.respBytes = append(d.run.respBytes, float64(nbytes))
	if d.strat == "ref-gcov" {
		d.run.gcovReads++
		if qr.Meta.CachedPlan {
			d.run.cachedPlans++
		}
	}
	return nil
}

func (d *httpLoad) doPass(s *session, measured bool) error {
	for _, rd := range d.pass {
		if err := d.query(s, rd, d.orc[rd.key], measured); err != nil {
			return err
		}
	}
	if measured {
		d.endBlock()
	}
	return nil
}

// measure runs step until the run's seconds are up. The client's own
// garbage collector is off meanwhile and runs at each block's end, so it
// never competes with the server for the CPU while a request is in flight.
func (d *httpLoad) measure(step func() error) error {
	debug.SetGCPercent(-1)
	defer debug.SetGCPercent(100)
	for start := time.Now(); time.Since(start).Seconds() < d.opts.seconds; {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (d *httpLoad) endBlock() {
	d.run.endBlock()
	runtime.GC()
}

// doNovelPass serves one pass of novel queries.
func (d *httpLoad) doNovelPass(s *session, measured bool) error {
	for i := 0; i < d.novel.passLen(); i++ {
		rd := d.novel.next()
		if err := d.query(s, rd, d.orc[rd.key], measured); err != nil {
			return err
		}
		if measured && (i+1)%novelBlock == 0 {
			d.endBlock()
		}
	}
	return nil
}

// novelWarmup is the number of unmeasured novel queries after each boot.
const novelWarmup = 3

// readRun drives warm-gcov, warm-range and novel-gcov.
func (d *httpLoad) readRun() error {
	step := d.doPass
	warm := func(s *session) error { return d.doPass(s, false) }
	if d.w.name == "novel-gcov" {
		step = d.doNovelPass
		warm = func(s *session) error {
			for i := 0; i < novelWarmup; i++ {
				rd := d.novel.warm()
				if err := d.query(s, rd, d.orc[rd.key], false); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var s *session
	for i := 0; i < d.opts.setups; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = d.boot(""); err != nil {
			return err
		}
		if err := warm(s); err != nil {
			s.close()
			return err
		}
		d.run.setupS = append(d.run.setupS, time.Since(s.srv.spawned).Seconds())
	}
	// Whole passes only, so every run serves the same mix.
	err := d.measure(func() error { return step(s, true) })
	if err == nil {
		d.run.peakRSSMB, err = s.srv.peakRSSMB()
	}
	s.close()
	if err != nil {
		return err
	}
	// recovery_s of an in-memory server is its boot: top the setup boots
	// up to the run's number of recovery samples, one server at a time.
	for k := len(d.run.bootS); k < d.opts.restarts; k++ {
		b, err := d.boot("")
		if err != nil {
			return err
		}
		b.close()
	}
	d.run.recoveryS = d.run.bootS
	return nil
}

// batchHash is the rows batch i adds to the read-your-write answer.
func (d *httpLoad) batchHash(i int) rowHash {
	h, ok := d.hashes[i]
	if !ok {
		persons, _ := d.rw.batch(i)
		for _, p := range persons {
			h.add([]string{p})
		}
		d.hashes[i] = h
	}
	return h
}

// liveHash is the read-your-write answer after cycle i.
func (d *httpLoad) liveHash(i int) rowHash {
	h := d.orc[rywText]
	for b := max(0, i-deleteLag+1); b <= i; b++ {
		h = h.plus(d.batchHash(b))
	}
	return h
}

// updateResponse is the part of a /v1/update answer the client checks.
type updateResponse struct {
	Deleted  int  `json:"deleted"`
	Inserted int  `json:"inserted"`
	Durable  bool `json:"durable"`
}

// cycle runs read-write cycle i: one update inserting batch i and
// deleting batch i-deleteLag, then the read-your-write query.
func (d *httpLoad) cycle(s *session, i int, measured bool) error {
	_, ins := d.rw.batch(i)
	req := map[string]string{"insert": ins}
	wantDeleted := 0
	if i >= deleteLag {
		_, req["delete"] = d.rw.batch(i - deleteLag)
		wantDeleted = 4 * batchPersons
	}
	body, _ := json.Marshal(req) // plain strings always marshal
	status, resp, lat, err := s.cl.do(d.ctx, http.MethodPost, "/v1/update", body)
	if err != nil {
		return err
	}
	d.run.attempted++
	var ur updateResponse
	if status != http.StatusOK || json.Unmarshal(resp, &ur) != nil ||
		ur.Inserted != 4*batchPersons || ur.Deleted != wantDeleted || !ur.Durable {
		d.run.fail("update %d: status %d: %.200s", i, status, resp)
	}
	if measured {
		d.run.updateMs = append(d.run.updateMs, float64(lat)/float64(time.Millisecond))
		d.run.busyS += lat.Seconds()
		d.run.ops++
	}
	return d.query(s, read{name: "RYW", text: rywText}, d.liveHash(i), measured)
}

func (d *httpLoad) checkpoint(s *session, measured bool) error {
	status, resp, lat, err := s.cl.do(d.ctx, http.MethodPost, "/v1/admin/checkpoint", nil)
	if err != nil {
		return err
	}
	d.run.attempted++
	if status != http.StatusOK {
		d.run.fail("checkpoint: status %d: %.200s", status, resp)
	}
	if measured {
		d.run.ckptMs = append(d.run.ckptMs, float64(lat)/float64(time.Millisecond))
		d.run.busyS += lat.Seconds()
		d.run.ops++
	}
	return nil
}

// writeRun drives read-write: fresh-dir boots, the measured update/read
// loop with periodic checkpoints, a final checkpoint, a WAL tail, then
// restarts that must answer as before shutdown.
func (d *httpLoad) writeRun() error {
	var (
		s   *session
		dir string
	)
	for k := 0; k < d.opts.setups; k++ {
		if s != nil {
			s.close()
		}
		dir = filepath.Join(d.opts.outDir, fmt.Sprintf("data-%d", k))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		var err error
		if s, err = d.boot(dir); err != nil {
			return err
		}
		for i := 0; i < deleteLag; i++ {
			if err := d.cycle(s, i, false); err != nil {
				s.close()
				return err
			}
		}
		d.run.setupS = append(d.run.setupS, time.Since(s.srv.spawned).Seconds())
	}
	i := deleteLag
	err := func() error {
		// Whole blocks only: checkpointEvery cycles, then a checkpoint.
		err := d.measure(func() error {
			for k := 0; k < checkpointEvery; k, i = k+1, i+1 {
				if err := d.cycle(s, i, true); err != nil {
					return err
				}
			}
			if err := d.checkpoint(s, true); err != nil {
				return err
			}
			d.endBlock()
			return nil
		})
		if err != nil {
			return err
		}
		if d.run.peakRSSMB, err = s.srv.peakRSSMB(); err != nil {
			return err
		}
		if err := d.checkpoint(s, false); err != nil {
			return err
		}
		for t := 0; t < tailCycles; t, i = t+1, i+1 {
			if err := d.cycle(s, i, false); err != nil {
				return err
			}
		}
		return nil
	}()
	s.close()
	if err != nil {
		return err
	}
	want := d.liveHash(i - 1)
	for k := 0; k < d.opts.restarts; k++ {
		s, err := d.boot(dir)
		if err != nil {
			return err
		}
		d.run.recoveryS = append(d.run.recoveryS, d.run.bootS[len(d.run.bootS)-1])
		err = d.query(s, read{name: "RYW-recovered", text: rywText}, want, false)
		s.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// runHTTP runs one workload over HTTP.
func runHTTP(ctx context.Context, w workload, seed int64, orc oracle, opts httpOpts) (*httpRun, error) {
	d := newHTTPLoad(ctx, w, seed, orc, opts)
	var err error
	if w.writes {
		err = d.writeRun()
	} else {
		err = d.readRun()
	}
	return d.run, err
}

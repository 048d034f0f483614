package main

// servicejobs.go — the service-jobs workload: an in-process bccd assembled
// the way cmd/bccd assembles it (durable store, cache.log, cache on, one
// job executor, a loopback TCP listener) driven by nproc HTTP clients, and
// the probes for the service, cache and HTTP layers.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bicoop"
	"bicoop/internal/cache"
	"bicoop/internal/service"
)

// serviceCacheEntries is the daemon's -cache capacity.
const serviceCacheEntries = 1 << 17

// daemon is one assembled bccd.
type daemon struct {
	dir   string
	store *service.Store
	clog  *service.CacheLog
	svc   *service.Service
	srv   *http.Server
	ln    net.Listener
	serve chan error
}

// startDaemon assembles a daemon in dir; listen false skips the HTTP side
// (the traced run drives a second daemon's Service directly).
func startDaemon(dir string, listen bool) (*daemon, error) {
	st, err := service.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	cst := cache.NewStore(serviceCacheEntries)
	clog, err := service.OpenCacheLog(filepath.Join(dir, "store", "cache.log"), cst)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, store: st, clog: clog}
	eng := bicoop.NewEngine(bicoop.WithCacheStore(cst))
	// The service's root context lives as long as the daemon; stop cancels
	// it through Drain.
	d.svc = service.New(context.Background(), st, eng, service.Options{Executors: 1, CacheLog: clog})
	if err := d.svc.Start(); err != nil {
		clog.Close()
		return nil, err
	}
	if !listen {
		return d, nil
	}
	d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.srv = &http.Server{Handler: service.NewHandler(d.svc)}
	d.serve = make(chan error, 1)
	go func() { d.serve <- d.srv.Serve(d.ln) }()
	return d, nil
}

// stop shuts the listener, drains the service, closes the cache log and
// waits for the server goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if d.srv != nil {
		errs = append(errs, d.srv.Shutdown(ctx))
		if err := <-d.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, d.svc.Drain(ctx), d.clog.Close())
	return errors.Join(errs...)
}

type serviceJobs struct {
	seed   int64
	d      *daemon
	base   string
	client *http.Client
	oracle *bicoop.Engine

	mu       sync.Mutex
	expected map[int][32]byte // results.csv hash by origin job

	jobs atomic.Int64 // completed jobs, all windows
}

func setupServiceJobs(_ context.Context, seed int64, scratch string) (instance, error) {
	dir, err := os.MkdirTemp(scratch, "daemon-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, true)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}
	return &serviceJobs{
		seed:     seed,
		d:        d,
		base:     "http://" + d.ln.Addr().String(),
		client:   &http.Client{Transport: tr, Timeout: time.Minute},
		oracle:   bicoop.NewEngine(bicoop.WithCache(serviceCacheEntries)),
		expected: map[int][32]byte{},
	}, nil
}

func (w *serviceJobs) close() error {
	w.client.CloseIdleConnections()
	return w.d.stop()
}

// do issues one HTTP request and returns the body of a 2xx response; any
// other status is an error.
func (w *serviceJobs) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// pollDelay bounds the wait between status polls: short against a job's
// few milliseconds, so polling adds little latency.
const pollDelay = 200 * time.Microsecond

func (w *serviceJobs) request(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	origin := jobOrigin(w.seed, i)
	job := freshJob(w.seed, origin)
	body, err := json.Marshal(job)
	if err != nil {
		return 0, err
	}
	rid := int64(i)
	root := tr.begin("request", 0, rid)
	call := tr.begin("http.request", root.ID, rid)
	t0 := time.Now()
	data, err := w.roundTrip(ctx, body, tr, call.ID, rid)
	lat := time.Since(t0)
	tr.end(call)
	if err == nil {
		w.jobs.Add(1)
		orc := tr.begin("oracle", root.ID, rid)
		err = w.check(ctx, origin, job, data)
		tr.end(orc)
	}
	tr.end(root)
	if err != nil {
		return lat, fmt.Errorf("job %d (origin %d): %w", i, origin, err)
	}
	return lat, nil
}

// roundTrip submits a job, polls it to a terminal state and fetches its
// results; a job ending in any state but done is a failure.
func (w *serviceJobs) roundTrip(ctx context.Context, body []byte, tr *tracer, parent, rid int64) ([]byte, error) {
	s := tr.begin("http.submit", parent, rid)
	data, err := w.do(ctx, http.MethodPost, "/v1/jobs", body)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	for !service.State(st.State).Terminal() {
		time.Sleep(pollDelay)
		s := tr.begin("http.poll", parent, rid)
		data, err := w.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	s = tr.begin("http.results", parent, rid)
	data, err = w.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/results", nil)
	tr.end(s)
	return data, err
}

// check compares the served results.csv with what the in-process engine
// writes for the same spec, memoized per origin job.
func (w *serviceJobs) check(ctx context.Context, origin int, job service.JobSpec, got []byte) error {
	w.mu.Lock()
	want, ok := w.expected[origin]
	w.mu.Unlock()
	if !ok {
		var buf bytes.Buffer
		log := service.NewResultLog(&buf)
		var err error
		if job.Sweep != nil {
			err = service.RunSweep(ctx, w.oracle, sweepSpecOf(job.Sweep), log)
		} else {
			err = service.RunRegionBatch(ctx, w.oracle, regionSpecOf(job.RegionBatch), log)
		}
		if err != nil {
			return err
		}
		want = sha256.Sum256(buf.Bytes())
		w.mu.Lock()
		w.expected[origin] = want
		w.mu.Unlock()
	}
	if sha256.Sum256(got) != want {
		return fmt.Errorf("%w: results.csv (%d bytes) differs from the in-process engine's output", errOracle, len(got))
	}
	return nil
}

// cacheStats reads the daemon's GET /stats.
func (w *serviceJobs) cacheStats(ctx context.Context) (bicoop.CacheStats, error) {
	data, err := w.do(ctx, http.MethodGet, "/stats", nil)
	if err != nil {
		return bicoop.CacheStats{}, err
	}
	var st struct {
		Cache bicoop.CacheStats `json:"cache"`
	}
	err = json.Unmarshal(data, &st)
	return st.Cache, err
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (w *serviceJobs) layers(ctx context.Context, tr *tracer, reqs []int, budget time.Duration) (layerReport, error) {
	m := map[string]float64{}

	// HTTP layer, from the traced window's spans.
	var reqMS, submitMS, resultsMS, pollMS float64
	var polls, traced int
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	for _, s := range spans {
		switch s.Name {
		case "http.request":
			reqMS += ms(s.dur())
			traced++
		case "http.submit":
			submitMS += ms(s.dur())
		case "http.results":
			resultsMS += ms(s.dur())
		case "http.poll":
			pollMS += ms(s.dur())
			polls++
		}
	}
	traced = max(traced, 1)
	m["http.submit_ms"] = submitMS / float64(traced)
	m["http.results_ms"] = resultsMS / float64(traced)
	m["http.poll_gets_per_job"] = float64(polls) / float64(traced)

	// Cache layer, cumulative over the daemon's life (GET /stats).
	cs, err := w.cacheStats(ctx)
	if err != nil {
		return layerReport{}, err
	}
	jobs := float64(max(w.jobs.Load(), 1))
	lookups := float64(cs.Hits + cs.Misses)
	m["cache.lookups_per_op"] = lookups / jobs
	m["cache.hit_ratio"] = float64(cs.Hits) / max(lookups, 1)
	m["cache.fills_per_op"] = float64(cs.Fills) / jobs
	m["cache.evictions"] = float64(cs.Evictions)
	if err := w.d.clog.Flush(); err != nil {
		return layerReport{}, err
	}
	if info, err := os.Stat(filepath.Join(w.d.dir, "store", "cache.log")); err == nil {
		m["cachelog.bytes_per_job"] = float64(info.Size()) / jobs
	}

	// Service layer: a second daemon in a fresh directory driven directly
	// through Submit and Wait on the traced jobs, with two shadow engines
	// (fresh caches, same job order) separating the result log from the
	// engine call.
	probeDir, err := os.MkdirTemp(filepath.Dir(w.d.dir), "probe-")
	if err != nil {
		return layerReport{}, err
	}
	d, err := startDaemon(probeDir, false)
	if err != nil {
		return layerReport{}, err
	}
	defer d.stop()
	runEng := bicoop.NewEngine(bicoop.WithCache(serviceCacheEntries))
	computeEng := bicoop.NewEngine(bicoop.WithCache(serviceCacheEntries))
	var admitMS, jobMS, runMS, computeMS float64
	var written int64
	probed := 0
	start := time.Now()
	for _, i := range reqs {
		if !withinBudget(start, probed, budget) {
			break
		}
		rid := int64(i)
		job := freshJob(w.seed, jobOrigin(w.seed, i))
		s := tr.begin("probe.service.job", 0, rid)
		a := tr.begin("probe.service.Submit", s.ID, rid)
		id, err := d.svc.Submit(job)
		a = tr.end(a)
		if err != nil {
			return layerReport{}, err
		}
		st, err := d.svc.Wait(ctx, id)
		s = tr.end(s)
		if err != nil {
			return layerReport{}, err
		}
		if st.State != service.StateDone {
			return layerReport{}, fmt.Errorf("probe job %s ended %s: %s", id, st.State, st.Error)
		}
		admitMS += ms(a.dur())
		jobMS += ms(s.dur())
		written += dirSize(filepath.Dir(d.store.ResultsPath(id)))

		k := filepath.Join(probeDir, fmt.Sprintf("run%d", probed))
		if err := os.Mkdir(k, 0o755); err != nil {
			return layerReport{}, err
		}
		r := tr.begin("probe.service.run", 0, rid)
		if err := runInto(ctx, runEng, job, filepath.Join(k, "results.csv"), filepath.Join(k, "checkpoint.json")); err != nil {
			return layerReport{}, err
		}
		r = tr.end(r)
		runMS += ms(r.dur())
		c := tr.begin("probe.bicoop.compute", 0, rid)
		if job.Sweep != nil {
			err = computeEng.Sweep(ctx, sweepSpecOf(job.Sweep), func(bicoop.SweepPoint) error { return nil })
		} else {
			err = computeEng.RegionBatch(ctx, regionSpecOf(job.RegionBatch), func(bicoop.RegionBatchPoint) error { return nil })
		}
		c = tr.end(c)
		if err != nil {
			return layerReport{}, err
		}
		computeMS += ms(c.dur())
		probed++
	}
	per := func(x float64) float64 { return x / float64(max(probed, 1)) }
	m["service.admit_ms"] = per(admitMS)
	m["service.job_ms"] = per(jobMS)
	m["service.run_ms"] = per(runMS)
	m["service.log_ms"] = per(runMS - computeMS)
	m["service.self_ms"] = per(jobMS - admitMS - runMS)
	m["service.bytes_written_per_job"] = per(float64(written))
	mean := reqMS / float64(traced)
	m["http.self_ms"] = mean - m["service.job_ms"]
	rep := layerReport{metrics: m, reqMS: mean, shares: []share{
		{"http", (submitMS + resultsMS + pollMS) / float64(traced)},
		{"service", m["service.self_ms"] + m["service.admit_ms"]},
		{"resultlog", m["service.log_ms"]},
		{"bicoop+", per(computeMS)},
	}}
	rep.notes = append(rep.notes,
		fmt.Sprintf("service layers probed on %d of %d traced jobs through a second daemon with fresh caches; its hit pattern differs from the HTTP daemon's", probed, len(reqs)),
		"the http share is the client-side time of the submit, poll and results GETs; the unattributed rest is queueing behind the other client's job (one executor, nproc clients) and the poll interval",
		"service.bytes_written_per_job is computed from job-directory sizes, not traced")
	return rep, nil
}

// runInto runs a job's spec into a fresh checkpointed result log, the way
// the service's executor does.
func runInto(ctx context.Context, eng *bicoop.Engine, job service.JobSpec, csvPath, ckPath string) error {
	log, err := service.OpenResultLog(csvPath, ckPath)
	if err != nil {
		return err
	}
	if job.Sweep != nil {
		err = service.RunSweep(ctx, eng, sweepSpecOf(job.Sweep), log)
	} else {
		err = service.RunRegionBatch(ctx, eng, regionSpecOf(job.RegionBatch), log)
	}
	return errors.Join(err, log.Close())
}

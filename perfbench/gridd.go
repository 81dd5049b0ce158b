package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gridcma/internal/daemon"
	"gridcma/internal/eventlog"
	"gridcma/internal/retry"
	"gridcma/internal/rng"
	"gridcma/internal/transport"
)

// griddWorkload is a closed-loop load on an in-process gridd daemon over
// loopback HTTP: one submitter connection joins the machines, then sends
// /submit batches and /event completes that trim the live set, each
// request waiting for the previous reply; a second connection scrapes
// /stats at a fixed rate. The daemon admits only when enough jobs are
// pending, so the event sequence, and the final grid, depend only on the
// seed and the number of batches.
type griddWorkload struct {
	machines   int           // machines joined before the load
	batch      int           // jobs per /submit
	admitAt    int           // AdmitPending: admission fires at this many pending jobs
	maxPending int           // MaxPending: the queue bound behind 429 refusals
	live       int           // completes keep this many jobs live
	statsEvery time.Duration // /stats scrape period
	// jobsPerSecond sizes the load: a run submits --seconds times this
	// many jobs, about what the daemon places in that time on the machine
	// the benchmark was tuned on (2 vCPUs).
	jobsPerSecond float64
	// replicated adds a follower daemon pulling over loopback TCP.
	replicated bool
	poll       time.Duration // follower poll period once caught up
}

var griddSolo = griddWorkload{
	machines: 64, batch: 64, admitAt: 256, maxPending: 4096, live: 2048,
	statsEvery:    200 * time.Millisecond,
	jobsPerSecond: 20000,
}

var griddReplicated = griddWorkload{
	machines: 64, batch: 64, admitAt: 256, maxPending: 4096, live: 2048,
	statsEvery:    200 * time.Millisecond,
	jobsPerSecond: 1000,
	replicated:    true, poll: 5 * time.Millisecond,
}

// batches is the number of /submit batches a load of d sends.
func (w griddWorkload) batches(d time.Duration) int {
	return max(1, int(math.Round(d.Seconds()*w.jobsPerSecond/float64(w.batch))))
}

// cluster is a primary daemon serving HTTP on loopback, plus, when
// replicated, a follower pulling from the primary's replication
// listener.
type cluster struct {
	w    griddWorkload
	gcfg daemon.Config
	dir  string

	primary *daemon.Daemon
	httpSrv *http.Server
	httpLn  net.Listener
	url     string
	httpErr chan error

	replSrv  *transport.Server
	replLn   net.Listener
	replErr  chan error
	follower *daemon.Daemon
	repl     *daemon.Replicator
	stepper  *stepper // traced runs drive the follower with Step

	lag *lagBook
}

// startCluster starts the daemons and joins the machines; when
// replicated, it returns once the follower has caught up. With tr set,
// the follower is driven by Replicator.Step under spans instead of by
// Replicator.Run.
func startCluster(w griddWorkload, seed uint64, base string, c *client, tr *Tracer) (cl *cluster, err error) {
	cl = &cluster{w: w, gcfg: daemon.DefaultConfig(), lag: newLagBook()}
	cl.gcfg.Seed = seed
	if cl.dir, err = os.MkdirTemp(base, "gridd-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			cl.close()
			cl = nil
		}
	}()
	cl.primary, err = daemon.NewDaemon(daemon.ServerConfig{
		Grid:         cl.gcfg,
		AdmitPending: w.admitAt,
		MaxPending:   w.maxPending,
		LogPath:      filepath.Join(cl.dir, "primary.wal"),
		Fsync:        daemon.FsyncInterval,
	})
	if err != nil {
		return cl, err
	}
	cl.primary.Start()
	if cl.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return cl, err
	}
	cl.url = "http://" + cl.httpLn.Addr().String()
	cl.httpSrv = &http.Server{Handler: cl.primary.Handler()}
	cl.httpErr = make(chan error, 1)
	go func() { cl.httpErr <- cl.httpSrv.Serve(cl.httpLn) }()

	if w.replicated {
		rs, err := daemon.NewReplServer(cl.primary, daemon.ReplConfig{})
		if err != nil {
			return cl, err
		}
		if cl.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return cl, err
		}
		cl.replSrv = transport.NewServer(rs)
		cl.replErr = make(chan error, 1)
		go func() { cl.replErr <- cl.replSrv.Serve(cl.replLn) }()
		cl.follower, err = daemon.NewDaemon(daemon.ServerConfig{
			Grid:    cl.gcfg,
			LogPath: filepath.Join(cl.dir, "follower.wal"),
			Fsync:   daemon.FsyncInterval,
		})
		if err != nil {
			return cl, err
		}
		cl.follower.Start()
		cl.repl, err = daemon.NewReplicator(cl.follower, daemon.ReplicatorConfig{
			Primary: cl.replLn.Addr().String(),
			ID:      "perfbench",
			Poll:    w.poll,
			OnApply: cl.lag.applied,
		})
		if err != nil {
			return cl, err
		}
		if tr != nil {
			cl.stepper = startStepper(cl.repl, tr, w.poll)
		} else {
			cl.repl.Run()
		}
	}

	// The fleet is the same for every seed: slowness multipliers cycle
	// through 1..MachRange, so the seed varies the jobs, not the mix of
	// machine speeds the schedule quality depends on.
	joins := make([]eventlog.Event, w.machines)
	for i := range joins {
		joins[i] = eventlog.Event{Type: eventlog.Join, Mult: float64(1 + i%int(cl.gcfg.MachRange))}
	}
	var joined []eventlog.Event
	if err := c.post(cl.url+"/event", "http.event", joins, &joined); err != nil {
		return cl, fmt.Errorf("joining machines: %w", err)
	}
	if len(joined) != w.machines {
		return cl, fmt.Errorf("joined %d machines, want %d", len(joined), w.machines)
	}
	return cl, cl.awaitFollower(10 * time.Second)
}

// awaitFollower waits until the follower has applied everything the
// primary has.
func (cl *cluster) awaitFollower(timeout time.Duration) error {
	if cl.follower == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for cl.follower.AppliedSeq() < cl.primary.AppliedSeq() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d of %d", cl.follower.AppliedSeq(), cl.primary.AppliedSeq())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// stopFollower halts the follower's pull loop.
func (cl *cluster) stopFollower() {
	if cl.stepper != nil {
		cl.stepper.stop()
	}
	if cl.repl != nil {
		cl.repl.Stop()
	}
}

// close stops every server and daemon the cluster started, waits for
// their goroutines and removes its files. It returns the errors they
// reported while stopping. Call it once.
func (cl *cluster) close() error {
	cl.stopFollower()
	var errs []error
	if cl.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, cl.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-cl.httpErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	} else if cl.httpLn != nil {
		cl.httpLn.Close()
	}
	if cl.replSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, cl.replSrv.Shutdown(ctx))
		cancel()
		errs = append(errs, <-cl.replErr)
	} else if cl.replLn != nil {
		cl.replLn.Close()
	}
	if cl.primary != nil {
		errs = append(errs, cl.primary.Stop())
	}
	if cl.follower != nil {
		errs = append(errs, cl.follower.Stop())
	}
	if cl.dir != "" {
		errs = append(errs, os.RemoveAll(cl.dir))
	}
	return errors.Join(errs...)
}

// lagBook pairs the client's ack time of each submit and complete with
// the time the follower applied it.
type lagBook struct {
	mu         sync.Mutex
	ack, apply map[lagKey]int64 // unix nanoseconds
}

type lagKey struct {
	t   eventlog.Type
	job uint64
}

func newLagBook() *lagBook {
	return &lagBook{ack: map[lagKey]int64{}, apply: map[lagKey]int64{}}
}

func (lb *lagBook) acked(t eventlog.Type, job uint64, at time.Time) {
	lb.mu.Lock()
	lb.ack[lagKey{t, job}] = at.UnixNano()
	lb.mu.Unlock()
}

// applied is the follower's ReplicatorConfig.OnApply hook.
func (lb *lagBook) applied(e eventlog.Event) {
	if e.Type == eventlog.Submit || e.Type == eventlog.Complete {
		lb.mu.Lock()
		lb.apply[lagKey{e.Type, e.Job}] = time.Now().UnixNano()
		lb.mu.Unlock()
	}
}

// lagsMs returns ack-to-follower-apply lags in milliseconds. An event
// the follower applied before the client saw its ack counts as 0.
func (lb *lagBook) lagsMs() []float64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make([]float64, 0, len(lb.ack))
	for k, a := range lb.ack {
		if ap, ok := lb.apply[k]; ok {
			out = append(out, float64(max(ap-a, 0))/1e6)
		}
	}
	return out
}

// stepper drives a follower with Replicator.Step at the poll period,
// recording one span per step.
type stepper struct {
	done, quit chan struct{}
	steps      []int // events applied per step
	err        error
}

func startStepper(r *daemon.Replicator, tr *Tracer, poll time.Duration) *stepper {
	s := &stepper{done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			sp := tr.Begin(0, "repl.step", 0)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n, err := r.Step(ctx)
			cancel()
			tr.End(sp)
			if retry.IsPermanent(err) {
				s.err = err
				return
			}
			// Like Replicator.Run: wait a poll period after an empty or
			// failed step, none after a step that applied events.
			wait := time.Duration(0)
			if err != nil || n == 0 {
				wait = poll
			}
			if err == nil {
				s.steps = append(s.steps, n)
			}
			select {
			case <-s.quit:
				return
			case <-time.After(wait):
			}
		}
	}()
	return s
}

// stop ends the step loop and waits for it; steps and err are safe to
// read afterwards.
func (s *stepper) stop() {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	<-s.done
}

// client is a JSON client over one keep-alive connection. Every request
// counts toward the outcome's attempted operations; a transport error,
// timeout or non-2xx status (429 included) counts as failed.
type client struct {
	hc   *http.Client
	tr   *Tracer
	mu   sync.Mutex
	ops  int
	errs int
	rtt  map[string][]time.Duration // by span name
}

func newClient(tr *Tracer) *client {
	return &client{
		hc: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		tr:  tr,
		rtt: map[string][]time.Duration{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(url, name string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(name, out, func() (*http.Response, error) {
		return c.hc.Post(url, "application/json", bytes.NewReader(b))
	})
}

func (c *client) get(url, name string, out any) error {
	return c.do(name, out, func() (*http.Response, error) { return c.hc.Get(url) })
}

func (c *client) do(name string, out any, send func() (*http.Response, error)) error {
	sp := c.tr.Begin(0, name, 0)
	t0 := time.Now()
	err := func() error {
		resp, err := send()
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(resp.Body)
			return &statusError{resp.StatusCode, fmt.Sprintf("%s: %s: %s", name, resp.Status, bytes.TrimSpace(msg))}
		}
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}()
	rtt := time.Since(t0)
	c.tr.End(sp)
	c.mu.Lock()
	c.ops++
	if err != nil {
		c.errs++
	} else {
		c.rtt[name] = append(c.rtt[name], rtt)
	}
	c.mu.Unlock()
	return err
}

// statusError is a non-2xx reply.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// refused reports whether err is a 429: the daemon turned the request
// away before applying any of it.
func refused(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusTooManyRequests
}

// loadResult is what the submitter saw during the load phase.
type loadResult struct {
	wall      time.Duration
	events    int // acknowledged events
	submitted int // jobs the daemon acknowledged
	batches   []sentBatch
	err       error // the request that ended the load early
}

// sentBatch is one /submit batch. Its times are read from the load's
// speedometer clock, which leaves out the reference loop.
type sentBatch struct {
	sent, placed       time.Duration // placed: the reply that placed its jobs
	sentCPU, placedCPU time.Duration // process CPU time at the same moments
	isPlaced           bool
	mark               int // speedometer samples taken before it was sent
	jobs               int
	events             int // events acknowledged in this batch's round of requests
}

// placeLatencies returns each placed job's wait from its /submit being
// sent to the reply that placed it.
func (ld loadResult) placeLatencies() []time.Duration {
	var out []time.Duration
	for _, b := range ld.batches {
		if b.isPlaced {
			for i := 0; i < b.jobs; i++ {
				out = append(out, b.placed-b.sent)
			}
		}
	}
	return out
}

// segment is one of k consecutive runs of batches of equal job count,
// from sending its first batch to placing its last.
type segment struct {
	wall, cpu time.Duration
	scale     float64 // turns cpu into CPU time at the reference speed
	events    int
}

// segments splits the batches into k segments. Medians over segments
// are robust to the host stalling for a few seconds, which a whole-run
// figure is not.
func (ld loadResult) segments(k int, sp *speedometer) []segment {
	k = min(k, len(ld.batches))
	out := make([]segment, k)
	for i := range out {
		end := (i + 1) * len(ld.batches) / k
		seg := ld.batches[i*len(ld.batches)/k : end]
		first, last := seg[0], seg[len(seg)-1]
		next := sp.mark()
		if end < len(ld.batches) {
			next = ld.batches[end].mark
		}
		out[i] = segment{wall: last.placed - first.sent, cpu: last.placedCPU - first.sentCPU, scale: sp.scale(first.mark, next)}
		for _, b := range seg {
			out[i].events += b.events
		}
	}
	return out
}

// loadSegments is how many segments cpu_to_target_s and ops_per_cpu_s take
// their medians over on the gridd workloads.
const loadSegments = 20

// load sends the given number of /submit batches in the closed loop, then
// closes the last admission window with /admit so every submitted job is
// placed. When sample is set, the client runs sp's reference loop
// between batches (speedometer.tick).
func (cl *cluster) load(c *client, seed uint64, batches int, sp *speedometer, sample bool) loadResult {
	w := cl.w
	r := rng.New(seed)
	var res loadResult
	waiting := 0 // batches from here on are not yet placed
	start, _ := sp.clock()
	placeAll := func() {
		at, cpu := sp.clock()
		for i := waiting; i < len(res.batches); i++ {
			b := &res.batches[i]
			b.placed, b.placedCPU, b.isPlaced = at, cpu, true
		}
		waiting = len(res.batches)
	}
	var live []uint64 // live job ids, oldest first
	bases := make([]float64, w.batch)
	for b := 0; b < batches; b++ {
		for i := range bases {
			bases[i] = float64(1 + r.Intn(int(cl.gcfg.TaskRange)))
		}
		if sample {
			sp.tick()
		}
		mark := sp.mark()
		var sr daemon.SubmitResponse
		sent, sentCPU := sp.clock()
		if err := c.post(cl.url+"/submit", "http.submit", daemon.SubmitRequest{Bases: bases}, &sr); err != nil {
			if refused(err) {
				continue // counted by the client; the batch was not applied
			}
			res.err = err
			break
		}
		now := time.Now()
		res.submitted += len(sr.IDs)
		res.batches = append(res.batches, sentBatch{sent: sent, sentCPU: sentCPU, mark: mark, jobs: len(sr.IDs), events: len(sr.IDs)})
		cur := &res.batches[len(res.batches)-1]
		if cl.follower != nil {
			for _, id := range sr.IDs {
				cl.lag.acked(eventlog.Submit, id, now)
			}
		}
		live = append(live, sr.IDs...)
		if sr.Admitted {
			cur.events++
			placeAll()
		}
		if over := len(live) - w.live; over > 0 {
			completes := make([]eventlog.Event, over)
			for i, id := range live[:over] {
				completes[i] = eventlog.Event{Type: eventlog.Complete, Job: id}
			}
			var applied []eventlog.Event
			if res.err = c.post(cl.url+"/event", "http.event", completes, &applied); res.err != nil {
				break
			}
			now := time.Now()
			cur.events += len(applied)
			if cl.follower != nil {
				for _, e := range completes {
					cl.lag.acked(eventlog.Complete, e.Job, now)
				}
			}
			live = live[over:]
		}
	}
	if res.err == nil && len(res.batches) > 0 {
		if res.err = c.post(cl.url+"/admit", "http.admit", struct{}{}, nil); res.err == nil {
			res.batches[len(res.batches)-1].events++
			placeAll()
		}
	}
	end, _ := sp.clock()
	res.wall = end - start
	for _, b := range res.batches {
		res.events += b.events
	}
	return res
}

// scrape GETs /stats at once and then every period until stop closes.
// Its failures are counted by the client.
func (cl *cluster) scrape(c *client, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		var st daemon.Stats
		c.get(cl.url+"/stats", "http.stats", &st)
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// phase is one load phase with its scraper and its checks.
type phase struct {
	load      loadResult
	statsRTT  []time.Duration
	clientOps int
	clientErr int
	lagsMs    []float64
	replay    *replayStats
	heapMB    float64
	mkRatio   float64
	flRatio   float64
	stepper   *stepper
	statsNow  time.Duration
	sp        *speedometer // sampled during set-up and, untraced, the load
	setup     float64      // median cluster start CPU time, seconds
	setupCPU  float64      // the same at the reference speed
	setupWall float64      // the same in wall time
}

// runPhase starts a cluster repeats times, keeping the last one, runs
// the load on it and checks the outputs.
func runPhase(w griddWorkload, o opts, base string, tr *Tracer, out *outcome, repeats int) (*phase, error) {
	sub, scr := newClient(tr), newClient(tr)
	defer sub.close()
	defer scr.close()

	sp := newSpeedometer()
	var cl *cluster
	var setups, setupWalls []float64
	for k := 0; k < repeats; k++ {
		if cl != nil {
			if err := cl.close(); err != nil {
				return nil, err
			}
		}
		sp.sample()
		wall0, cpu0 := sp.clock()
		var err error
		if cl, err = startCluster(w, o.seed, base, sub, tr); err != nil {
			return nil, err
		}
		wall, cpu := sp.clock()
		setups = append(setups, (cpu - cpu0).Seconds())
		setupWalls = append(setupWalls, (wall - wall0).Seconds())
	}
	setupScale := sp.scale(0, sp.mark())
	defer cl.close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.scrape(scr, w.statsEvery, stop)
	}()
	ld := cl.load(sub, o.seed, w.batches(o.seconds), sp, tr == nil)
	close(stop)
	wg.Wait()

	p := &phase{load: ld, sp: sp, setup: median(setups), setupWall: median(setupWalls)}
	p.setupCPU = p.setup * setupScale
	if ld.err != nil {
		out.wrong(fmt.Sprintf("load ended early: %v", ld.err))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / 1e6

	t0 := time.Now()
	stats := cl.primary.StatsNow()
	p.statsNow = time.Since(t0)
	if stats.Pending != 0 || stats.Counters.Placed != uint64(ld.submitted) || stats.Counters.Submitted != uint64(ld.submitted) {
		out.wrong(fmt.Sprintf("placement: client submitted %d, daemon submitted %d placed %d pending %d",
			ld.submitted, stats.Counters.Submitted, stats.Counters.Placed, stats.Pending))
	}
	if n := len(ld.placeLatencies()); n != ld.submitted {
		out.wrong(fmt.Sprintf("placement: %d of %d submitted jobs seen placed", n, ld.submitted))
	}
	snap, err := cl.primary.SnapshotNow()
	if err != nil {
		return nil, err
	}
	g, err := daemon.Restore(snap)
	if err != nil {
		out.wrong(fmt.Sprintf("snapshot restore: %v", err))
	} else if err := g.CheckInvariants(); err != nil {
		out.wrong(fmt.Sprintf("restored snapshot invariants: %v", err))
	}
	digest := cl.primary.GridDigest()
	if cl.follower != nil {
		if err := cl.awaitFollower(30 * time.Second); err != nil {
			out.wrong(err.Error())
		} else if fd := cl.follower.GridDigest(); fd != digest {
			out.wrong(fmt.Sprintf("follower digest %s, primary %s", fd, digest))
		}
		cl.stopFollower()
		p.lagsMs = cl.lag.lagsMs()
		p.stepper = cl.stepper
		if p.stepper != nil && p.stepper.err != nil {
			out.wrong(fmt.Sprintf("follower step: %v", p.stepper.err))
		}
	}
	if err := cl.primary.Stop(); err != nil {
		return nil, err
	}
	wal, err := os.ReadFile(filepath.Join(cl.dir, "primary.wal"))
	if err != nil {
		return nil, err
	}
	if cl.follower != nil {
		if err := cl.follower.Stop(); err != nil {
			return nil, err
		}
		fwal, err := os.ReadFile(filepath.Join(cl.dir, "follower.wal"))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(fwal, wal) {
			out.wrong(fmt.Sprintf("follower WAL (%d bytes) differs from the primary's (%d bytes)", len(fwal), len(wal)))
		}
	}
	p.replay, err = replayWAL(cl.gcfg, wal, filepath.Join(cl.dir, "reappend.wal"), tr != nil)
	if err != nil {
		out.wrong(err.Error())
	} else if p.replay.digest != digest {
		out.wrong(fmt.Sprintf("replayed WAL digest %s, primary %s", p.replay.digest, digest))
	} else {
		p.mkRatio, p.flRatio = p.replay.mkRatio, p.replay.flRatio
	}

	p.statsRTT = scr.rtt["http.stats"]
	p.clientOps, p.clientErr = sub.ops+scr.ops, sub.errs+scr.errs
	return p, nil
}

// runGridd runs a gridd workload. Untraced, it reports the end-to-end
// metrics of one load phase. Traced, it runs an untraced phase and a
// traced one, each for half the time, and reports the per-layer metrics
// of the traced phase.
func runGridd(w griddWorkload, o opts) (*outcome, error) {
	out := newOutcome()
	if o.trace {
		o.seconds /= 2
	}
	base := filepath.Join(o.dir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	p, err := runPhase(w, o, base, nil, out, setupRepeats)
	if err != nil {
		return nil, err
	}
	account(out, p)
	ld := p.load
	segs := ld.segments(loadSegments, p.sp)
	var cpus, cpuRaws, walls, rates, rateRaws, rateWalls, scales []float64
	for _, sg := range segs {
		cpus = append(cpus, sg.cpu.Seconds()*sg.scale)
		cpuRaws = append(cpuRaws, sg.cpu.Seconds())
		walls = append(walls, sg.wall.Seconds())
		rates = append(rates, float64(sg.events)/(sg.cpu.Seconds()*sg.scale))
		rateRaws = append(rateRaws, float64(sg.events)/sg.cpu.Seconds())
		rateWalls = append(rateWalls, float64(sg.events)/sg.wall.Seconds())
		scales = append(scales, sg.scale)
	}
	out.e2e = map[string]float64{
		"setup_s":          p.setupCPU,
		"cpu_to_target_s":  median(cpus),
		"ops_per_cpu_s":    median(rates),
		"makespan_over_lb": p.mkRatio,
		"flowtime_over_lb": p.flRatio,
		"heap_mb":          p.heapMB,
	}
	placeMs := msOf(ld.placeLatencies())
	out.note("host_speed", median(scales), "ratio")
	out.note("setup_raw_cpu_s", p.setup, "s")
	out.note("cpu_to_target_raw_s", median(cpuRaws), "s")
	out.note("ops_per_raw_cpu_s", median(rateRaws), "1/s")
	out.note("setup_wall_s", p.setupWall, "s")
	out.note("time_to_target_s", median(walls), "s")
	out.note("events_per_s", median(rateWalls), "1/s")
	out.note("jobs_placed", float64(len(placeMs)), "count")
	out.note("place_p50_ms", percentile(placeMs, 0.50), "ms")
	out.note("place_p99_ms", percentile(placeMs, 0.99), "ms")
	out.note("stats_p90_ms", percentile(msOf(p.statsRTT), 0.90), "ms")
	if w.replicated {
		out.note("repl_lag_p99_ms", percentile(p.lagsMs, 0.99), "ms")
	}
	out.note("error_rate", out.errorRate(), "ratio")

	if o.trace {
		tr := newTracer()
		tp, err := runPhase(w, o, base, tr, out, 1)
		if err != nil {
			return nil, err
		}
		account(out, tp)
		griddLayers(out, tr, tp, p)
		return out, writeSpans(tr, o)
	}
	return out, nil
}

// account folds a phase's request counts into the outcome.
func account(out *outcome, p *phase) {
	out.attempted += p.clientOps
	out.failed += p.clientErr
}

// griddLayers fills the per-layer metrics from the traced phase tp; up
// is the untraced phase of the same run, for the tracing overhead.
func griddLayers(out *outcome, tr *Tracer, tp, up *phase) {
	sum := tr.Summary()
	p50 := func(name string) float64 {
		if s := sum[name]; s != nil {
			return median(msOf(s.Durs))
		}
		return 0
	}
	l := out.layers
	l["http.submit_p50_ms"] = p50("http.submit")
	l["http.event_p50_ms"] = p50("http.event")
	if s := sum["http.stats"]; s != nil {
		l["http.stats_p90_ms"] = percentile(msOf(s.Durs), 0.90)
	}
	rp := tp.replay
	l["daemon.apply_submit_us"] = rp.applySubmitUs
	l["daemon.apply_complete_us"] = rp.applyCompleteUs
	l["daemon.admit_p99_ms"] = rp.admitP99Ms
	l["daemon.digest_us"] = rp.digestUs
	l["daemon.digest_share"] = rp.digestUs * 1e-6 * float64(rp.events) / tp.load.wall.Seconds()
	l["daemon.stats_ms"] = tp.statsNow.Seconds() * 1e3
	l["eventlog.append_us"] = rp.appendUs
	l["eventlog.fsync_ms"] = rp.fsyncMs
	l["eventlog.bytes_per_event"] = rp.bytesPerEvent
	l["eventlog.decode_us"] = rp.decodeUs
	if st := tp.stepper; st != nil {
		empty, events := 0, 0
		for _, n := range st.steps {
			events += n
			if n == 0 {
				empty++
			}
		}
		steps := sum["repl.step"]
		if steps == nil {
			steps = &spanSum{}
		}
		l["repl.lag_p99_ms"] = percentile(tp.lagsMs, 0.99)
		l["repl.steps"] = float64(len(st.steps))
		l["repl.step_ms"] = median(msOf(steps.Durs))
		l["repl.events_per_step"] = float64(events) / float64(max(len(st.steps), 1))
		l["repl.empty_step_frac"] = float64(empty) / float64(max(len(st.steps), 1))
	}
	// The load runs for a fixed time, so compare the wall time of the
	// traced phase with what the untraced phase would need for the same
	// number of events.
	untracedPerEvent := up.load.wall.Seconds() / float64(up.load.events)
	l["trace.overhead_s"] = tp.load.wall.Seconds() - untracedPerEvent*float64(tp.load.events)
}

// replayStats are measured by replaying a primary's WAL.
type replayStats struct {
	events  int
	digest  string
	mkRatio float64
	flRatio float64

	applySubmitUs, applyCompleteUs, admitP99Ms float64
	digestUs                                   float64
	appendUs, fsyncMs, bytesPerEvent, decodeUs float64
}

// digestEvery samples Grid.Digest on the replayed grid every this many
// events: a digest reads the whole grid, so taking one per event would
// make the replay many times slower than the load.
const digestEvery = 64

// qualitySamples is how many admissions of the second half of a run the
// replay samples for makespan_over_lb and flowtime_over_lb. The second
// half skips the ramp-up to the full live set, and averaging over many
// admissions keeps the figures steady from seed to seed.
const qualitySamples = 64

// replayWAL decodes wal, applies it to a fresh grid and returns the
// grid's digest and its schedule quality over the lower bounds of its
// live jobs, a geometric mean over admissions sampled evenly from the
// second half of the run. With timed set, it also times each layer on
// the replayed stream: Grid.Apply per event type, sampled Grid.Digest,
// eventlog.Read, and Writer.Append plus File.Sync into a scratch log at
// path.
func replayWAL(cfg daemon.Config, wal []byte, path string, timed bool) (*replayStats, error) {
	rs := &replayStats{}
	t0 := time.Now()
	events, err := eventlog.Read(bytes.NewReader(wal))
	if err != nil {
		return nil, fmt.Errorf("decoding the primary WAL: %w", err)
	}
	decode := time.Since(t0)
	rs.events = len(events)
	g, err := daemon.NewGrid(cfg)
	if err != nil {
		return nil, err
	}
	admits := 0
	for _, e := range events {
		if e.Type == eventlog.Admit {
			admits++
		}
	}
	every := max(1, admits/2/qualitySamples)
	var mkRatios, flRatios []float64
	var submit, complete, admit, digest []time.Duration
	admitNo := 0
	for i, e := range events {
		a := time.Now()
		if err := g.Apply(e); err != nil {
			return nil, fmt.Errorf("replaying event %d: %w", e.Seq, err)
		}
		dt := time.Since(a)
		if e.Type == eventlog.Admit {
			admitNo++
			if left := admits - admitNo; left < admits/2 && left%every == 0 {
				in, _ := g.LiveInstance()
				if in == nil {
					return nil, fmt.Errorf("replayed grid has no live jobs after event %d", e.Seq)
				}
				mk, fl := g.Quality()
				lbMk, lbFl := lowerBounds(in)
				mkRatios = append(mkRatios, mk/lbMk)
				flRatios = append(flRatios, fl/lbFl)
			}
		}
		if !timed {
			continue
		}
		switch e.Type {
		case eventlog.Submit:
			submit = append(submit, dt)
		case eventlog.Complete:
			complete = append(complete, dt)
		case eventlog.Admit:
			admit = append(admit, dt)
		}
		if i%digestEvery == 0 {
			a = time.Now()
			g.Digest()
			digest = append(digest, time.Since(a))
		}
	}
	rs.digest = g.Digest()
	rs.mkRatio, rs.flRatio = geomean(mkRatios), geomean(flRatios)
	if !timed {
		return rs, nil
	}
	rs.applySubmitUs = meanUs(submit)
	rs.applyCompleteUs = meanUs(complete)
	rs.admitP99Ms = percentile(msOf(admit), 0.99)
	rs.digestUs = meanUs(digest)
	rs.decodeUs = decode.Seconds() * 1e6 / float64(max(len(events), 1))
	rs.bytesPerEvent = float64(len(wal)) / float64(max(len(events), 1))
	rs.appendUs, rs.fsyncMs, err = reappend(events, path)
	return rs, err
}

// reappend writes events through a fresh eventlog.Writer into the file
// at path, syncing every syncEvery events, and returns the mean Append
// time in microseconds and the median File.Sync time in milliseconds.
func reappend(events []eventlog.Event, path string) (appendUs, fsyncMs float64, err error) {
	const syncEvery = 4096
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	w := eventlog.NewWriter(f)
	var appends time.Duration
	var syncs []time.Duration
	for i, e := range events {
		e.Seq, e.Crc = 0, 0
		t0 := time.Now()
		if _, err := w.Append(e); err != nil {
			return 0, 0, err
		}
		appends += time.Since(t0)
		if (i+1)%syncEvery == 0 || i == len(events)-1 {
			if err := w.Flush(); err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			if err := f.Sync(); err != nil {
				return 0, 0, err
			}
			syncs = append(syncs, time.Since(t0))
		}
	}
	return appends.Seconds() * 1e6 / float64(max(len(events), 1)), median(msOf(syncs)), f.Close()
}

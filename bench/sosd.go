package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sos/internal/arch"
	icache "sos/internal/cache"
	"sos/internal/exact"
	"sos/internal/expts"
	"sos/internal/schedule"
	"sos/internal/sim"
	"sos/internal/specfile"
	"sos/internal/taskgraph"
)

// The open-loop rates of the sosd-mixed workload, in requests per
// second. They are constants, about 25% and 50% of the capacity
// (closed-loop completions per second with two connections, about 1200)
// measured at the commit that introduced this benchmark on a shared 2-CPU
// host; they must not be derived at run time, or a faster sosd would be
// measured at a higher load. A rate of 70% of capacity overloaded sosd
// whenever that host slowed down.
const (
	lowRPS  = 320
	highRPS = 600
)

// passRequests is the length of one closed-loop pass: one fixed mix of
// 60 repeat solves, 30 distinct solves and 10 sweeps, in seeded order.
// sosdPass is its nominal length (see passCount) on a 2-CPU host.
const (
	passRequests = 100
	sosdPass     = 80 * time.Millisecond
)

// reqKind is a request's role in the traffic mix.
type reqKind int

const (
	kindRepeat   reqKind = iota // one of 18 fixed specs: a cache read
	kindDistinct                // a fresh random spec: a miss, a solve and a store
	kindSweep                   // an Example 1 /v1/sweep
)

var kindNames = [...]string{"repeat", "distinct", "sweep"}

// problem is a request body together with what its answer must be.
type problem struct {
	body  []byte
	spec  json.RawMessage
	sweep bool
	cap   float64
	g     *taskgraph.Graph
	pool  *arch.Instances
	topo  arch.Topology

	want  float64             // optimal makespan of a solve
	front []expts.ParetoPoint // expected frontier of a sweep
	err   error
}

// expected returns the problem's optimal makespan; for a distinct spec it
// is solved here, in-process, with the combinatorial engine, once.
func (p *problem) expected(ctx context.Context) (float64, error) {
	if p.want > 0 || p.err != nil {
		return p.want, p.err
	}
	res, err := exact.Synthesize(ctx, p.g, p.pool, p.topo, exact.Options{CostCap: p.cap})
	switch {
	case err != nil:
		p.err = err
	case !res.Optimal || res.Design == nil:
		p.err = fmt.Errorf("reference solve: status %v", res.Status)
	default:
		p.want = res.Design.Makespan
	}
	return p.want, p.err
}

// newProblem encodes a spec into a request body and parses it back, so
// answers are decoded against exactly the problem sosd sees.
func newProblem(sf specfile.Spec, topo string, costCap float64, sweep bool) (*problem, error) {
	spec, err := json.Marshal(sf)
	if err != nil {
		return nil, err
	}
	parsed, err := specfile.Parse(spec)
	if err != nil {
		return nil, err
	}
	req := map[string]any{"spec": json.RawMessage(spec)}
	if costCap > 0 {
		req["cost_cap"] = costCap
	}
	t := arch.Topology(arch.PointToPoint{})
	if topo == "bus" {
		req["topology"] = topo
		t = arch.Bus{}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &problem{body: body, spec: spec, sweep: sweep, cap: costCap,
		g: parsed.Graph, pool: parsed.Instances(), topo: t}, nil
}

// repeatProblems are the 18 fixed specs: Example 1 at caps 5-14, and
// Example 2 on point-to-point and on a bus at the paper's caps. Their
// answers come from the paper's tables.
func repeatProblems() ([]*problem, error) {
	g1, lib1 := expts.Example1()
	g2, lib2 := expts.Example2()
	type fam struct {
		g     *taskgraph.Graph
		lib   *arch.Library
		topo  string
		table []expts.ParetoPoint
		caps  []float64
	}
	fams := []fam{
		{g1, lib1, "p2p", expts.Table2Full, []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
		{g2, lib2, "p2p", expts.Table4, nil},
		{g2, lib2, "bus", expts.Table5, nil},
	}
	var out []*problem
	for _, f := range fams {
		caps := f.caps
		if caps == nil {
			for _, p := range f.table {
				caps = append(caps, p.Cost)
			}
		}
		for _, c := range caps {
			p, err := newProblem(specfile.Spec{Graph: f.g, Library: f.lib, Pool: []int{2, 2, 2}}, f.topo, c, false)
			if err != nil {
				return nil, err
			}
			p.want = math.Inf(1)
			for _, pt := range f.table {
				if pt.Cost <= c+1e-9 {
					p.want = math.Min(p.want, pt.Perf)
				}
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// sample is one request sent to sosd.
type sample struct {
	kind            reqKind
	p               *problem
	due, sent, done time.Time
	code            int
	resp            []byte
	err             error
	queued, solve   float64 // seconds, as sosd reports them
	failed          bool
}

// latency is the request's time from when it was due; a failed request
// has an infinite latency.
func (s *sample) latency() float64 {
	if s.failed {
		return math.Inf(1)
	}
	return ms(s.done.Sub(s.due))
}

// sosdRun holds one sosd process and the traffic sent to it.
type sosdRun struct {
	cfg     config
	cmd     *exec.Cmd
	drained chan struct{} // closed once sosd's stdout is drained
	url     string
	client  *http.Client
	rng     *rand.Rand // draws the traffic: kinds' order and repeat specs
	repeats []*problem

	// distinct draws the distinct specs, the same ones for every seed: their
	// solve times differ up to thirtyfold, so a seeded draw would move the
	// kind's time between seeds.
	distinct *rand.Rand
	sweep    *problem
}

// startSosd launches sosd on a free local port and waits for /readyz.
func startSosd(cfg config) (*sosdRun, error) {
	cmd := exec.Command(cfg.sosd, "-addr", "127.0.0.1:0", "-workers", "2", "-quiet")
	cmd.Stderr = os.Stderr
	// If the benchmark is killed before it can stop sosd, the kernel
	// stops sosd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sosd: %w", err)
	}
	s := &sosdRun{cfg: cfg, cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			s.url = "http://" + strings.Fields(addr)[0]
			break
		}
	}
	go func() {
		defer close(s.drained)
		_, _ = io.Copy(io.Discard, stdout) // sosd's log lines are not needed
	}()
	if s.url == "" {
		s.stop()
		return nil, errors.New("sosd exited before listening")
	}
	s.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("sosd not ready after 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts sosd down with SIGTERM and waits for it to exit.
func (s *sosdRun) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-s.drained
		_ = s.cmd.Wait() // the exit status of a drained sosd is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// newSample draws one request of the given kind.
func (s *sosdRun) newSample(kind reqKind) (*sample, error) {
	smp := &sample{kind: kind}
	switch kind {
	case kindRepeat:
		smp.p = s.repeats[s.rng.Intn(len(s.repeats))]
	case kindSweep:
		smp.p = s.sweep
	default:
		rng := rand.New(rand.NewSource(s.distinct.Int63()))
		g := taskgraph.Random(rng, taskgraph.RandomSpec{Subtasks: 5})
		if err := g.Freeze(); err != nil {
			return nil, err
		}
		p, err := newProblem(specfile.Spec{Graph: g, Library: arch.RandomLibrary(rng, g, 3)}, "p2p", 0, false)
		if err != nil {
			return nil, err
		}
		smp.p = p
	}
	return smp, nil
}

// mix draws n requests in blocks of ten (six repeats, three distinct
// specs, one sweep), each block in seeded order.
func (s *sosdRun) mix(n int) ([]*sample, error) {
	block := []reqKind{kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat, kindRepeat,
		kindDistinct, kindDistinct, kindDistinct, kindSweep}
	out := make([]*sample, 0, n)
	for len(out) < n {
		for _, i := range s.rng.Perm(len(block)) {
			if len(out) == n {
				break
			}
			smp, err := s.newSample(block[i])
			if err != nil {
				return nil, err
			}
			out = append(out, smp)
		}
	}
	return out, nil
}

// send posts one request and records its timings.
func (s *sosdRun) send(smp *sample) {
	path := "/v1/solve"
	if smp.p.sweep {
		path = "/v1/sweep"
	}
	smp.sent = time.Now()
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(smp.p.body))
	if err == nil {
		smp.code = resp.StatusCode
		smp.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	smp.done = time.Now()
	smp.err = err
}

// run sends samples over two connections. With open set, each request is
// sent at its due time; otherwise the two connections send back to back
// (a closed loop) and a request is due when the loop starts.
func (s *sosdRun) run(samples []*sample, open bool) time.Duration {
	work := make(chan *sample)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for smp := range work {
				s.send(smp)
			}
		}()
	}
	start := time.Now()
	for _, smp := range samples {
		if open {
			time.Sleep(time.Until(smp.due))
		} else {
			smp.due = start
		}
		work <- smp
	}
	close(work)
	wg.Wait()
	return time.Since(start)
}

// openLoop sends Poisson arrivals at rate for dur and returns the samples.
func (s *sosdRun) openLoop(rate float64, dur time.Duration) ([]*sample, error) {
	var offs []float64
	for t := s.rng.ExpFloat64() / rate; t < dur.Seconds(); t += s.rng.ExpFloat64() / rate {
		offs = append(offs, t)
	}
	samples, err := s.mix(len(offs))
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	for i, smp := range samples {
		smp.due = start.Add(time.Duration(offs[i] * float64(time.Second)))
	}
	s.run(samples, true)
	return samples, nil
}

// wireResponse is the part of sosd's response the benchmark checks.
type wireResponse struct {
	Status string `json:"status"`
	Result *struct {
		Design json.RawMessage `json:"design"`
	} `json:"result"`
	Frontier []struct {
		Cost   float64         `json:"cost"`
		Perf   float64         `json:"perf"`
		Status string          `json:"status"`
		Design json.RawMessage `json:"design"`
	} `json:"frontier"`
	QueuedSeconds float64 `json:"queued_seconds"`
	SolveSeconds  float64 `json:"solve_seconds"`
	Error         string  `json:"error"`
}

// verify checks one answer off the clock: the design decodes against the
// problem (which validates it), replays in the simulator, and has the
// optimal makespan — from the paper's tables for repeat specs and sweeps,
// from an in-process exact.Synthesize for distinct specs.
func (s *sosdRun) verify(ctx context.Context, smp *sample) error {
	if smp.err != nil {
		return smp.err
	}
	if smp.code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", smp.code, bytes.TrimSpace(smp.resp))
	}
	var wr wireResponse
	if err := json.Unmarshal(smp.resp, &wr); err != nil {
		return err
	}
	smp.queued, smp.solve = wr.QueuedSeconds, wr.SolveSeconds
	if wr.Status != "optimal" {
		return fmt.Errorf("status %q %s", wr.Status, wr.Error)
	}
	p := smp.p
	decode := func(raw json.RawMessage) (*schedule.Design, error) {
		d, err := schedule.DecodeDesign(raw, p.g, p.pool, p.topo)
		if err != nil {
			return nil, err
		}
		tr, err := sim.Replay(d)
		if err != nil {
			return nil, err
		}
		if !near(tr.Makespan, d.Makespan) {
			return nil, fmt.Errorf("replay makespan %g, design says %g", tr.Makespan, d.Makespan)
		}
		return d, nil
	}
	if p.sweep {
		if len(wr.Frontier) != len(p.front) {
			return fmt.Errorf("frontier has %d points, want %d", len(wr.Frontier), len(p.front))
		}
		for i, pt := range wr.Frontier {
			if !near(pt.Cost, p.front[i].Cost) || !near(pt.Perf, p.front[i].Perf) {
				return fmt.Errorf("point %d is (%g, %g), want (%g, %g)", i, pt.Cost, pt.Perf, p.front[i].Cost, p.front[i].Perf)
			}
			if _, err := decode(pt.Design); err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
		}
		return nil
	}
	if wr.Result == nil {
		return errors.New("no result")
	}
	d, err := decode(wr.Result.Design)
	if err != nil {
		return err
	}
	want, err := p.expected(ctx)
	if err != nil {
		return err
	}
	if !near(d.Makespan, want) {
		return fmt.Errorf("makespan %g, optimum %g", d.Makespan, want)
	}
	return nil
}

// checkAll verifies every sample of a step and marks failures.
func (s *sosdRun) checkAll(ctx context.Context, samples []*sample, r *report, step string) {
	for _, smp := range samples {
		err := s.verify(ctx, smp)
		smp.failed = err != nil
		r.check(fmt.Sprintf("%s %s", step, kindNames[smp.kind]), err)
	}
}

// stats fetches /v1/stats counters.
func (s *sosdRun) stats() (map[string]int64, error) {
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return st.Counters, nil
}

// cpu returns the CPU time sosd has used so far (see processCPU).
func (s *sosdRun) cpu() (time.Duration, error) { return processCPU(s.cmd.Process.Pid) }

// setupSosd sets up sosd process proc of a run: launch sosd, wait until
// ready, and warm its cache with each repeat spec once (answers checked).
// Each process's traffic is drawn from the seed and proc, and its distinct
// specs from proc, so the distinct specs of a run differ from process to
// process.
func setupSosd(ctx context.Context, cfg config, r *report, proc int) (*sosdRun, error) {
	s, err := startSosd(cfg)
	if err != nil {
		return nil, err
	}
	s.rng = rand.New(rand.NewSource(cfg.seed<<8 + int64(proc)))
	s.distinct = rand.New(rand.NewSource(int64(proc)))
	if s.repeats, err = repeatProblems(); err == nil {
		g1, lib1 := expts.Example1()
		s.sweep, err = newProblem(specfile.Spec{Graph: g1, Library: lib1, Pool: []int{2, 2, 2}}, "p2p", 0, true)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	s.sweep.front = expts.Table2Full
	warm := make([]*sample, len(s.repeats))
	for i, p := range s.repeats {
		warm[i] = &sample{kind: kindRepeat, p: p}
		s.send(warm[i])
	}
	s.checkAll(ctx, warm, r, "warm-up")
	return s, nil
}

// sosdSamples pools what the measured phases of several sosd processes
// took.
type sosdSamples struct {
	passes, passWall, rss []float64   // per closed-loop pass: sosd's CPU and wall-clock seconds, peak RSS
	kindCPU               [][]float64 // per request kind: sosd's CPU ms per request in each pass of the kind
	kernel                []float64   // kernelCPU samples, ms
	completed             int
	busy, busyCPU         time.Duration
}

// measure runs one sosd process's share of the measured phases, each for
// about secs: closed-loop passes over two connections, then the same
// traffic split by kind, each kind's requests a closed-loop pass of their
// own, so that sosd's CPU clock splits by kind. A pass's CPU time covers
// the garbage collection its requests cause, wherever it runs; the CPU
// time of one request would not.
func (s *sosdRun) measure(ctx context.Context, r *report, acc *sosdSamples, secs float64) error {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	start := time.Now()
	for n, done := passCount(s.cfg.smoke, secs, sosdPass), 0; done < n && !overTime(start, slack*secs, done); done++ {
		samples, err := s.mix(passRequests)
		if err != nil {
			return err
		}
		acc.kernel = append(acc.kernel, ms(kernelCPU()))
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
		c0, err := s.cpu()
		if err != nil {
			return err
		}
		d := s.run(samples, false)
		c1, err := s.cpu()
		if err != nil {
			return err
		}
		peak, err := peakRSSMB(pid)
		if err != nil {
			return err
		}
		acc.busy, acc.busyCPU = acc.busy+d, acc.busyCPU+c1-c0
		acc.completed += len(samples)
		acc.passes, acc.passWall, acc.rss = append(acc.passes, (c1-c0).Seconds()), append(acc.passWall, d.Seconds()), append(acc.rss, peak)
		s.checkAll(ctx, samples, r, "closed")
	}
	start = time.Now()
	for n, done := passCount(s.cfg.smoke, secs, sosdPass), 0; done < n && !overTime(start, slack*secs, done); done++ {
		samples, err := s.mix(passRequests)
		if err != nil {
			return err
		}
		acc.kernel = append(acc.kernel, ms(kernelCPU()))
		byKind := make([][]*sample, len(kindNames))
		for _, smp := range samples {
			byKind[smp.kind] = append(byKind[smp.kind], smp)
		}
		for k, group := range byKind {
			c0, err := s.cpu()
			if err != nil {
				return err
			}
			s.run(group, false)
			c1, err := s.cpu()
			if err != nil {
				return err
			}
			acc.kindCPU[k] = append(acc.kindCPU[k], ms(c1-c0)/float64(len(group)))
		}
		s.checkAll(ctx, samples, r, "by kind")
	}
	return nil
}

// runSosdMixed sets up several sosd processes in turn and gives each a
// share of the measured phases; times are sosd's CPU times, the set-up's
// with the benchmark's own added, scaled by speedScale. The last
// process then also takes the open-loop steps, whose latencies are
// wall-clock diagnostics, and the traced pass.
func runSosdMixed(ctx context.Context, cfg config, r *report) error {
	n := workers
	if cfg.smoke {
		n = 1
	}
	step := time.Duration(cfg.seconds / 4 * float64(time.Second))
	acc := &sosdSamples{kindCPU: make([][]float64, len(kindNames))}
	var setupS []float64
	var s *sosdRun
	for i := 0; i < n; i++ {
		c0 := selfCPU()
		var err error
		if s, err = setupSosd(ctx, cfg, r, i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		sc, err := s.cpu()
		if err == nil {
			setupS = append(setupS, (selfCPU() - c0 + sc).Seconds())
			err = s.measure(ctx, r, acc, step.Seconds()/float64(n))
		}
		if err != nil {
			s.stop()
			return err
		}
		if i < n-1 {
			s.stop()
		}
	}
	defer s.stop()

	before, err := s.stats()
	if err != nil {
		return err
	}
	low, err := s.openLoop(lowRPS, step)
	if err != nil {
		return err
	}
	s.checkAll(ctx, low, r, "low")
	high, err := s.openLoop(highRPS, step)
	if err != nil {
		return err
	}
	s.checkAll(ctx, high, r, "high")
	after, err := s.stats()
	if err != nil {
		return err
	}

	// A kind's time is its median over the kind's passes of sosd's CPU time
	// per request; the kinds stand for the operations as a batch
	// workload's items do.
	opCPU := make([]float64, len(kindNames))
	for k, xs := range acc.kindCPU {
		opCPU[k] = median(xs)
		r.extra[kindNames[k]+".cpu_ms"] = metric{opCPU[k], "ms"}
	}
	lowLat, highLat := latencies(low), latencies(high)
	lp, lowTail := tail(lowLat)
	hp, highTail := tail(highLat)
	wp, winTail := windowTail(low, time.Second)
	passS := median(acc.passes)
	scale := speedScale(acc.kernel)
	r.e2e["setup_s"] = metric{scale * median(setupS), "s"}
	r.e2e["pass_cpu_s"] = metric{scale * passS, "s"}
	r.e2e["op_cpu_p50_ms"] = metric{scale * median(opCPU), "ms"}
	r.e2e["op_cpu_tail_ms"] = metric{scale * slices.Max(opCPU), "ms"}
	r.e2e["peak_rss_mb"] = metric{median(acc.rss), "MB"}
	r.extra["pass_cpu_raw_s"] = metric{passS, "s"}
	r.extra["pass_wall_s"] = metric{median(acc.passWall), "s"}
	r.extra["host.kernel_ms"] = metric{median(acc.kernel), "ms"}
	r.extra["low.lat_p50_ms"] = metric{median(lowLat), "ms"}
	r.extra["low.lat_p99_ms"] = metric{lowTail, "ms"}
	r.extra["low.lat_window_tail_ms"] = metric{winTail, "ms"}
	r.extra["high.lat_p50_ms"] = metric{median(highLat), "ms"}
	r.extra["high.lat_p99_ms"] = metric{highTail, "ms"}
	r.extra["capacity_rps"] = metric{float64(acc.completed) / acc.busy.Seconds(), "1/s"}
	r.extra["sosd.cpu_ms_per_req"] = metric{ms(acc.busyCPU) / float64(acc.completed), "ms"}
	var lag []float64
	for _, smp := range append(append([]*sample(nil), low...), high...) {
		lag = append(lag, ms(smp.sent.Sub(smp.due)))
	}
	_, lagTail := tail(lag)
	r.extra["gen.lag_p99_ms"] = metric{lagTail, "ms"}
	r.note("%d sosd processes, each set up once; %d closed-loop passes of %d requests, then %d split by kind",
		len(setupS), len(acc.passes), passRequests, len(acc.kindCPU[kindRepeat]))
	r.note("open loop at %d req/s for %v (n=%d; low.lat_window_tail_ms is the median over one-second windows of each window's %s, low.lat_p99_ms the %s of all)",
		lowRPS, step, len(low), pctLabel(wp), pctLabel(lp))
	r.note("open loop at %d req/s for %v (n=%d; high.lat_p99_ms is the %s)", highRPS, step, len(high), pctLabel(hp))

	if cfg.trace {
		return s.traced(ctx, r, high, before, after, passS)
	}
	return nil
}

// windowTail splits samples by due time into windows of length w and
// returns the median over the windows of each window's tail latency, and
// the smallest percentile a window's tail was taken at. A stall shorter
// than a window moves one window's tail, not the median. Windows with 20
// samples or fewer (the ragged end of a step) have no tail and are left
// out, unless no window has more.
func windowTail(samples []*sample, w time.Duration) (pct, value float64) {
	if len(samples) == 0 {
		return 0, math.NaN()
	}
	start := samples[0].due
	byWin := map[int][]float64{}
	for _, smp := range samples {
		k := int(smp.due.Sub(start) / w)
		byWin[k] = append(byWin[k], smp.latency())
	}
	most := 0
	for _, xs := range byWin {
		most = max(most, len(xs))
	}
	pct = 100
	var tails []float64
	for _, xs := range byWin {
		if len(xs) <= 20 && most > 20 {
			continue
		}
		p, v := tail(xs)
		pct = math.Min(pct, p)
		tails = append(tails, v)
	}
	return pct, median(tails)
}

func latencies(samples []*sample) []float64 {
	out := make([]float64, len(samples))
	for i, smp := range samples {
		out[i] = smp.latency()
	}
	return out
}

// traced runs one more closed-loop pass with a span per request, times
// the spec parser and the cache key over the bodies sent, and derives the
// server's per-layer times from the high-rate step: sosd reports each
// request's queue wait and solve time, and the rest of the client's
// latency is HTTP and encoding.
func (s *sosdRun) traced(ctx context.Context, r *report, high []*sample, before, after map[string]int64, passS float64) error {
	samples, err := s.mix(passRequests)
	if err != nil {
		return err
	}
	tr := newTracer()
	c0, err := s.cpu()
	if err != nil {
		return err
	}
	s.run(samples, false)
	c1, err := s.cpu()
	if err != nil {
		return err
	}
	s.checkAll(ctx, samples, r, "traced")
	for i, smp := range samples {
		id := tr.begin(i+1, 0, kindNames[smp.kind], benchLayer)
		sp := &tr.spans[id-1]
		sp.Start, sp.End = smp.sent.Sub(tr.t0), smp.done.Sub(tr.t0)
		tr.attr(id, "queued_ms", 1000*smp.queued)
		tr.attr(id, "solve_ms", 1000*smp.solve)
	}
	r.spans = tr.spans

	delta := map[string]int64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	setLayerMetrics(r, delta, 0, 0)
	for _, l := range []string{"model", "lp", "milp", "exact", "heur", "schedule", "sim"} {
		r.layer[l+".self_pct"] = metric{0, "%"}
	}
	var queue, solve, wire, total float64
	var qs, ss, hs []float64
	for _, smp := range high {
		if smp.failed {
			continue
		}
		l := ms(smp.done.Sub(smp.sent))
		q, sv := 1000*smp.queued, 1000*smp.solve
		queue, solve, wire, total = queue+q, solve+sv, wire+l-q-sv, total+l
		qs, ss, hs = append(qs, q), append(ss, sv), append(hs, l-q-sv)
	}
	share := func(x float64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * x / total
	}
	r.layer["server.queue_pct"] = metric{share(queue), "%"}
	r.layer["server.solve_pct"] = metric{share(solve), "%"}
	r.layer["server.http_pct"] = metric{share(wire), "%"}
	r.layer["trace.coverage_pct"] = metric{share(queue + solve), "%"}
	r.layer["trace.overhead_pct"] = metric{100 * ((c1 - c0).Seconds() - passS) / passS, "%"}
	_, q99 := tail(qs)
	_, s99 := tail(ss)
	r.extra["server.queue_ms.p50"] = metric{median(qs), "ms"}
	r.extra["server.queue_ms.p99"] = metric{q99, "ms"}
	r.extra["server.solve_ms.p50"] = metric{median(ss), "ms"}
	r.extra["server.solve_ms.p99"] = metric{s99, "ms"}
	r.extra["server.http_ms.p50"] = metric{median(hs), "ms"}

	var parse, key []float64
	for _, smp := range high {
		if smp.p.sweep {
			continue
		}
		t0 := time.Now()
		sf, err := specfile.Parse(smp.p.spec)
		parse = append(parse, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return err
		}
		req := icache.Request{Graph: sf.Graph, Pool: sf.Instances(), Topo: smp.p.topo, CostCap: smp.p.cap}
		t0 = time.Now()
		_, err = icache.Prepare(req)
		key = append(key, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return err
		}
	}
	r.extra["specfile.parse_us"] = metric{median(parse), "us"}
	r.extra["cache.key_us"] = metric{median(key), "us"}
	return nil
}

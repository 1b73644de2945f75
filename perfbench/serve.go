package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sepdc"
	"sepdc/internal/pointgen"
	"sepdc/internal/serveproto"
)

// Serve workload parameters. knnserve runs with its defaults otherwise
// (2 replicas, 512-query cutover, 2 ms gather deadline, queue 256).
const (
	serveN         = 20_000
	serveD         = 2
	serveK         = 3
	latencyLimitMs = 20.0 // 10× the default gather deadline
	serveStarts    = 9    // server starts per run; setup_s is their median
	burstDur       = 500 * time.Millisecond
)

// serveLadder is the offered-rate ladder in requests per second (×32
// queries each), and serveShares the share of the window each rung gets.
// The first rung is the low rung; its share puts its p99 on more than a
// thousand requests. serveHigh indexes the high rung. The last rung is
// the saturation rung: offered far beyond what knnserve answers with
// nproc requests in flight, and capped, so it measures the server's
// throughput rather than the generator's rate.
var (
	serveLadder = []float64{150, 300, 450, saturateRate}
	serveShares = []float64{0.4, 0.15, 0.15, 0.3}
)

const (
	serveHigh    = 2
	saturateRate = 4000.0
)

// Serve-swap parameters: one mid-ladder rate for swapShare of the window,
// then the saturation rate for the rest, with POST /swap on a cadence
// throughout.
const (
	swapRate  = 300.0
	swapShare = 0.5
	swapEvery = time.Second
)

// saturated reports whether rung i is the capped saturation rung.
func saturated(i int) bool { return i == len(serveLadder)-1 }

// serverProc is one running knnserve.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	pid  string
	done chan error
}

// startServer execs knnserve on a free loopback port and waits until it
// answers a query; it returns the process and the time that took.
func startServer(cfg *config, points [][]float64) (*serverProc, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	start := time.Now()
	cmd := exec.Command(cfg.server,
		"-addr", addr,
		"-dist", string(pointgen.UniformCube),
		"-n", strconv.Itoa(serveN), "-d", strconv.Itoa(serveD), "-k", strconv.Itoa(serveK),
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-replicas", strconv.Itoa(min(2, cfg.nproc)))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	probe := serveproto.AppendRequest(nil, [][]float64{points[0]}, serveD, false)
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("knnserve exited during start: %v", err)
		default:
		}
		resp, err := client.Post(s.base+"/query", binaryContentType, bytes.NewReader(probe))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, errors.New("knnserve did not answer within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

type healthz struct {
	Swaps    int64 `json:"swaps"`
	Passes   int64 `json:"passes"`
	Rejected int64 `json:"rejected"`
}

func (s *serverProc) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cpuSeconds reads the server's user+system CPU time from /proc/<pid>/stat
// (clock ticks at the Linux USER_HZ of 100).
func (s *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile("/proc/" + s.pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", s.pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// gauge scrapes one unlabeled gauge from /metrics.
func (s *serverProc) gauge(name string) (float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, nil // not yet set: nothing released
}

// traceRec is the part of a /traces line the benchmark joins on.
type traceRec struct {
	TraceID    string `json:"trace_id"`
	QueueNs    int64  `json:"queue_ns"`
	CoalesceNs int64  `json:"coalesce_ns"`
	PassNs     int64  `json:"pass_ns"`
	TotalNs    int64  `json:"total_ns"`
}

// tracePoller collects the server's request traces while traced traffic
// runs: /traces keeps only the most recent requests, so it is read often.
// Only the polling goroutine writes recs; finish reads it after that
// goroutine has exited.
type tracePoller struct {
	s    *serverProc
	stop chan struct{}
	wg   sync.WaitGroup
	recs map[string]traceRec
}

const tracePoll = 200 * time.Millisecond

func pollTraces(s *serverProc) *tracePoller {
	tp := &tracePoller{s: s, stop: make(chan struct{}), recs: map[string]traceRec{}}
	tp.wg.Add(1)
	go func() {
		defer tp.wg.Done()
		tick := time.NewTicker(tracePoll)
		defer tick.Stop()
		for {
			select {
			case <-tp.stop:
				tp.fetch()
				return
			case <-tick.C:
				tp.fetch()
			}
		}
	}()
	return tp
}

func (tp *tracePoller) fetch() {
	resp, err := http.Get(tp.s.base + "/traces?name=serve")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var r traceRec
		if err := dec.Decode(&r); err != nil {
			return
		}
		tp.recs[r.TraceID] = r
	}
}

// finish stops polling and returns the collected traces.
func (tp *tracePoller) finish() map[string]traceRec {
	close(tp.stop)
	tp.wg.Wait()
	return tp.recs
}

// serveEnv is what both serve workloads share: the point set, the
// reference Batcher every answer is checked against, and the server.
type serveEnv struct {
	points [][]float64
	ref    *sepdc.Batcher
	srv    *serverProc
	lg     *loadgen
	// startRSS holds the peak RSS of every start but the last, when
	// setUpServe ran bursts.
	startRSS samples
}

// setUpServe builds the reference and starts knnserve serveStarts times,
// keeping the last; setup_s is the median exec → first-answer time. With
// bursts, every start but the last serves a saturated burst before it
// stops, and its peak RSS is kept: one process's peak is set mostly by
// where its collector ran while it built the structure (21–26 MB for one
// seed on the tuning host), so a single process's peak is a noisy sample.
func setUpServe(cfg *config, out *outcome, bursts bool) (*serveEnv, error) {
	out.params["n"] = serveN
	out.params["d"] = serveD
	out.params["k"] = serveK
	out.params["dist"] = string(pointgen.UniformCube)
	out.params["request_queries"] = serveBatch
	out.params["conns"] = cfg.nproc
	out.params["latency_limit_ms"] = latencyLimitMs

	points, err := genPoints(serveN, serveD, cfg.seed)
	if err != nil {
		return nil, err
	}
	qs, err := sepdc.NewQueryStructure(points, serveK, cfg.seed+1_000_003)
	if err != nil {
		return nil, fmt.Errorf("reference structure: %w", err)
	}
	// The generator allocates per request; collect less often so its own
	// pauses stay out of the latencies it records.
	debug.SetGCPercent(400)
	env := &serveEnv{points: points, ref: qs.NewBatcher(cfg.nproc)}
	var setup samples
	for i := 0; i < serveStarts; i++ {
		srv, took, err := startServer(cfg, points)
		if err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
		if i == serveStarts-1 {
			env.srv = srv
			break
		}
		if bursts {
			rss, err := env.burst(cfg, out, srv)
			if err != nil {
				srv.stop()
				return nil, err
			}
			env.startRSS = append(env.startRSS, rss)
		}
		srv.stop()
	}
	out.e2e["setup_s"] = setup.median()
	out.note("server starts (s): %.3f", setup)
	env.lg = newLoadgen(env.srv.base, cfg.nproc, serveD, points, cfg.seed)

	// One unmeasured second at the low rate opens the connections and
	// grows the server's arenas; its answers are checked like the rest.
	warm := env.lg.segment(serveLadder[0], time.Second, false, false)
	env.lg.run(warm)
	out.checkSegments(env.ref, warm)
	return env, nil
}

// burst serves a capped saturated burst to srv from a fresh generator,
// checks its answers, and returns the server's peak RSS.
func (env *serveEnv) burst(cfg *config, out *outcome, srv *serverProc) (float64, error) {
	lg := newLoadgen(srv.base, cfg.nproc, serveD, env.points, cfg.seed)
	defer lg.close()
	seg := lg.segment(saturateRate, burstDur, false, true)
	lg.run(seg)
	out.checkSegments(env.ref, seg)
	return peakRSSMB(srv.pid)
}

func (env *serveEnv) close() {
	if env.lg != nil {
		env.lg.close()
	}
	if env.srv != nil {
		env.srv.stop()
	}
}

// serverCounters is a reading of the server's own counters, or the
// difference of two.
type serverCounters struct {
	h   healthz
	cpu float64
}

// add accumulates the change from before to after into c.
func (c *serverCounters) add(before, after serverCounters) {
	c.h.Passes += after.h.Passes - before.h.Passes
	c.h.Rejected += after.h.Rejected - before.h.Rejected
	c.cpu += after.cpu - before.cpu
}

func (env *serveEnv) counters() (serverCounters, error) {
	var c serverCounters
	if err := env.srv.getJSON("/healthz", &c.h); err != nil {
		return c, err
	}
	cpu, err := env.srv.cpuSeconds()
	c.cpu = cpu
	return c, err
}

// layerStats fills the serving per-layer metrics from traced segments
// and the server counter changes across them.
func layerStats(out *outcome, segs []*segment, traces map[string]traceRec, delta serverCounters, encodeUS, decodeUS float64) {
	var queue, coalesce, pass, httpT, late samples
	var requests, queries int64
	for _, seg := range segs {
		st := seg.stats()
		late = append(late, st.late...)
		for _, r := range seg.reqs {
			requests++
			if !r.ok() {
				continue
			}
			queries += int64(len(r.queries))
			t, found := traces[r.trace.TraceIDString()]
			if !found {
				continue
			}
			queue = append(queue, float64(t.QueueNs)/1e6)
			coalesce = append(coalesce, float64(t.CoalesceNs)/1e6)
			pass = append(pass, float64(t.PassNs)/1e6)
			httpT = append(httpT, ms(r.done.Sub(r.sent))-float64(t.TotalNs)/1e6)
		}
	}
	L := out.layer
	L["knnserve.queue_ms_p50"], L["knnserve.queue_ms_p99"] = queue.median(), queue.quantile(0.99)
	L["knnserve.coalesce_ms_p50"], L["knnserve.coalesce_ms_p99"] = coalesce.median(), coalesce.quantile(0.99)
	L["knnserve.pass_ms_p50"], L["knnserve.pass_ms_p99"] = pass.median(), pass.quantile(0.99)
	L["knnserve.http_ms_p50"], L["knnserve.http_ms_p99"] = httpT.median(), httpT.quantile(0.99)
	L["loadgen.late_ms_p99"] = late.quantile(0.99)
	L["serveproto.encode_us"] = encodeUS
	L["serveproto.decode_us"] = decodeUS
	if delta.h.Passes > 0 {
		L["knnserve.queries_per_pass"] = float64(queries) / float64(delta.h.Passes)
	}
	if requests > 0 {
		L["knnserve.rejected_ratio"] = float64(delta.h.Rejected) / float64(requests)
	}
	if queries > 0 {
		L["knnserve.cpu_ms_per_kq"] = delta.cpu * 1e3 / (float64(queries) / 1e3)
	}
	out.note("traced requests joined with server traces: %d of %d", len(queue), requests)
}

// encodeUS times serveproto.AppendRequest over a segment's requests.
func encodeUS(seg *segment) float64 {
	var buf []byte
	start := time.Now()
	for _, r := range seg.reqs {
		buf = serveproto.AppendRequest(buf[:0], r.queries, serveD, false)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(seg.reqs)) / 1e3
}

// runServe offers the rate ladder, lowest first, then checks every answer.
func runServe(cfg *config) (*outcome, error) {
	out := newOutcome()
	env, err := setUpServe(cfg, out, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out.params["ladder_req_per_s"] = serveLadder
	out.params["low_rung_req_per_s"] = serveLadder[0]
	out.params["high_rung_req_per_s"] = serveLadder[serveHigh]

	if cfg.trace {
		return out, traceServe(cfg, out, env)
	}

	segs := make([]*segment, len(serveLadder))
	for i, rate := range serveLadder {
		segs[i] = env.lg.segment(rate, rungDur(cfg, i), false, saturated(i))
		env.lg.run(segs[i])
		pause()
	}
	rss, err := peakRSSMB(env.srv.pid)
	if err != nil {
		return nil, err
	}
	// The median over the server processes: the serving one and the
	// ones that served a burst.
	out.e2e["peak_rss_mb"] = append(env.startRSS, rss).median()
	out.note("server peak RSS (MB), bursts then the serving one: %.2f", append(env.startRSS, rss))
	out.checkSegments(env.ref, segs...)

	stats := make([]segStats, len(segs))
	best := -1
	for i, seg := range segs {
		stats[i] = seg.stats()
		st := stats[i]
		p99 := st.lat.quantile(0.99)
		passed := st.failed == 0 && !st.backlog && p99 <= latencyLimitMs
		// The saturation rung falls ever further behind its schedule,
		// so its due-time latencies say nothing.
		if !saturated(i) {
			out.named[fmt.Sprintf("rung_%g_p99_ms", seg.rate)] = named{p99, "ms", len(st.lat)}
		}
		if passed {
			best = i
		}
	}
	low, high, sat := stats[0], stats[serveHigh], stats[len(stats)-1]
	out.e2e["p50_ms"] = low.lat.median()
	out.e2e["answers_per_s"] = sat.throughput
	maxQPS, maxN := 0.0, 0
	if best >= 0 {
		maxQPS, maxN = stats[best].goodput, len(stats[best].lat)
		out.params["max_rung_req_per_s"] = serveLadder[best]
	}
	out.named["serve_low_p50_ms"] = named{low.lat.median(), "ms", len(low.lat)}
	out.named["serve_low_p99_ms"] = named{low.lat.quantile(0.99), "ms", len(low.lat)}
	out.named["serve_high_p50_ms"] = named{high.lat.median(), "ms", len(high.lat)}
	out.named["serve_high_p99_ms"] = named{high.lat.quantile(0.99), "ms", len(high.lat)}
	out.named["serve_max_qps"] = named{maxQPS, "q/s", maxN}
	out.named["serve_sat_qps"] = named{sat.throughput, "q/s", len(sat.lat)}
	out.addTail("serve_low_ms", low.lat, "ms")
	out.addTail("serve_high_ms", high.lat, "ms")
	return out, nil
}

// rungDur is rung i's share of the window.
func rungDur(cfg *config, i int) time.Duration {
	return time.Duration(serveShares[i] * float64(cfg.window))
}

// pause lets the server settle between segments.
func pause() { time.Sleep(100 * time.Millisecond) }

// traceServe runs each rung twice, plain then traced, and attributes the
// traced requests of the rungs up to the high rung to the server's spans.
func traceServe(cfg *config, out *outcome, env *serveEnv) error {
	var plain, traced []*segment
	var delta serverCounters
	allTraces := map[string]traceRec{}
	for i, rate := range serveLadder {
		half := rungDur(cfg, i) / 2
		p := env.lg.segment(rate, half, false, saturated(i))
		env.lg.run(p)
		pause()
		t := env.lg.segment(rate, half, true, saturated(i))
		c0, err := env.counters()
		if err != nil {
			return err
		}
		tp := pollTraces(env.srv)
		env.lg.run(t)
		traces := tp.finish()
		c1, err := env.counters()
		if err != nil {
			return err
		}
		pause()
		plain, traced = append(plain, p), append(traced, t)
		if i <= serveHigh {
			delta.add(c0, c1)
			for id, r := range traces {
				allTraces[id] = r
			}
		}
	}
	decode := out.checkSegments(env.ref, append(plain, traced...)...)
	layerStats(out, traced[:serveHigh+1], allTraces, delta, encodeUS(traced[0]), decode)
	lp, lt := plain[0].stats(), traced[0].stats()
	out.layer["trace.overhead_pct"] = (lt.lat.median()/lp.lat.median() - 1) * 100
	return nil
}

// runServeSwap serves one fixed rate while POST /swap rebuilds and swaps
// the snapshot on a fixed cadence.
func runServeSwap(cfg *config) (*outcome, error) {
	out := newOutcome()
	// No bursts: the peak RSS here must be the serving process's own,
	// since only it sees the swaps whose generations it retires.
	env, err := setUpServe(cfg, out, false)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out.params["rate_req_per_s"] = swapRate
	out.params["saturation_req_per_s"] = saturateRate
	out.params["saturation_share"] = 1 - swapShare
	out.params["swap_every_s"] = swapEvery.Seconds()

	var swapS, buildMs samples
	var swapFailed int
	// swapper posts swaps one at a time, due half a cadence after the
	// segment starts and every swapEvery after that, so a segment of whole
	// seconds holds the same number of swaps on every run.
	swapper := func(stop <-chan struct{}) {
		client := &http.Client{Timeout: 30 * time.Second}
		defer client.CloseIdleConnections()
		start := time.Now()
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(swapEvery/2 + time.Duration(j)*swapEvery))):
			}
			t0 := time.Now()
			resp, err := client.Post(env.srv.base+"/swap", "", nil)
			if err != nil {
				swapFailed++
				continue
			}
			var body struct {
				BuildMs float64 `json:"build_ms"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				swapFailed++
				continue
			}
			swapS = append(swapS, time.Since(t0).Seconds())
			buildMs = append(buildMs, body.BuildMs)
		}
	}
	// withSwaps runs f while the swapper runs, and waits for both.
	withSwaps := func(f func()) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			swapper(stop)
		}()
		f()
		close(stop)
		wg.Wait()
	}

	if cfg.trace {
		var plain, traced *segment
		var c0, c1 serverCounters
		var traces map[string]traceRec
		var errs [2]error
		withSwaps(func() {
			plain = env.lg.segment(swapRate, cfg.window/2, false, false)
			env.lg.run(plain)
			traced = env.lg.segment(swapRate, cfg.window/2, true, false)
			c0, errs[0] = env.counters()
			tp := pollTraces(env.srv)
			env.lg.run(traced)
			traces = tp.finish()
			c1, errs[1] = env.counters()
		})
		if err := errors.Join(errs[:]...); err != nil {
			return nil, err
		}
		decode := out.checkSegments(env.ref, plain, traced)
		var delta serverCounters
		delta.add(c0, c1)
		layerStats(out, []*segment{traced}, traces, delta, encodeUS(traced), decode)
		lp, lt := plain.stats(), traced.stats()
		out.layer["trace.overhead_pct"] = (lt.lat.median()/lp.lat.median() - 1) * 100
		out.layer["knnserve.swap_build_ms"] = buildMs.median()
		// Read after the last swap has returned.
		var h healthz
		if err := env.srv.getJSON("/healthz", &h); err != nil {
			return nil, err
		}
		released, err := env.srv.gauge("sepdc_serve_generations_released")
		if err != nil {
			return nil, err
		}
		out.layer["snapshot.release_lag"] = float64(h.Swaps) - released
	} else {
		seg := env.lg.segment(swapRate, time.Duration(swapShare*float64(cfg.window)), false, false)
		withSwaps(func() { env.lg.run(seg) })
		pause()
		sat := env.lg.segment(saturateRate, time.Duration((1-swapShare)*float64(cfg.window)), false, true)
		withSwaps(func() { env.lg.run(sat) })
		rss, err := peakRSSMB(env.srv.pid)
		if err != nil {
			return nil, err
		}
		out.e2e["peak_rss_mb"] = rss
		out.checkSegments(env.ref, seg, sat)
		st, satSt := seg.stats(), sat.stats()
		out.e2e["p50_ms"] = st.lat.median()
		out.e2e["answers_per_s"] = satSt.throughput
		out.named["swap_sat_qps"] = named{satSt.throughput, "q/s", len(satSt.lat)}
		out.named["swap_serve_p50_ms"] = named{st.lat.median(), "ms", len(st.lat)}
		out.named["swap_serve_p99_ms"] = named{st.lat.quantile(0.99), "ms", len(st.lat)}
		out.named["swap_s_p50"] = named{swapS.median(), "s", len(swapS)}
		out.addTail("swap_serve_ms", st.lat, "ms")
	}
	out.attempted += int64(len(swapS) + swapFailed)
	out.failed += int64(swapFailed)
	return out, nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shortcuts/internal/serve"
)

// The serve workload's offered-rate ladder, in requests per second, and
// the latency limit a rung's p99 must meet to count toward max_rps.
// Latency from the due time is printed for every rung, and as read_*_ms
// for refRate, but it is not gated: on a small shared host a contended
// spell moves the knee below refRate and the open-loop queue turns a
// 0.15 ms median into tens of milliseconds, while lower rates pay vCPU
// wake-ups whose cost depends on how idle the host is. op_p50_ms is the
// median service time over closed-loop blocks (closedLoop), run before
// every rung and after the last; closedCap bounds the requests a block
// may draw. swapRate is the read rate held while swaps build.
var (
	rateLadder = []float64{1000, 2000, 4000, 8000, 12000}
	refRate    = 4000.0
	swapRate   = 500.0
	closedCap  = 50000.0
)

// The server boots relayserve's default world and swaps between it and
// one other. Both are fixed: the workload seed shapes the traffic (which
// corridors, in which order, which filters), so a run's cost does not
// depend on which world its seed would have drawn.
const (
	p99LimitMs = 5.0
	bootSeed   = 1
	swapSeed   = 2
	boots      = 5
)

// serveWorldSeeds lists every world a serve run boots or swaps to.
func serveWorldSeeds() []int64 { return []int64{bootSeed, swapSeed} }

// reference is an in-process server over one world: the source of the
// exact bodies a remote server on that world must return.
type reference struct {
	seed    int64
	handler http.Handler
	pin     servePin
	plans   map[string]bool // "SRC-DST" corridors with a plan
}

func buildReference(seed int64) (*reference, error) {
	srv, err := serve.New(serve.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := srv.Warm(); err != nil {
		return nil, err
	}
	ref := &reference{seed: seed, handler: srv.Handler(), plans: map[string]bool{}}
	body, err := ref.get("/v1/plans")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Plans []serve.Plan `json:"plans"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("reference seed %d: /v1/plans: %w", seed, err)
	}
	for _, p := range doc.Plans {
		ref.plans[p.Src+"-"+p.Dst] = true
		ref.pin.Plans++
		ref.pin.Observations += p.Observations
	}
	return ref, nil
}

func (r *reference) get(url string) ([]byte, error) {
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		return nil, fmt.Errorf("reference seed %d: GET %s = %d", r.seed, url, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// readMix returns the URLs of the read mix: /v1/relays/best over every
// corridor both worlds planned (half of them asked in reverse order),
// plus plan, relay and facility filters over a sample of countries.
func readMix(a, b *reference, rng *rand.Rand) (best, filters []string) {
	countries := map[string]bool{}
	for c := range a.plans {
		if !b.plans[c] {
			continue
		}
		src, dst, _ := strings.Cut(c, "-")
		if rng.Intn(2) == 0 {
			src, dst = dst, src
		}
		best = append(best, "/v1/relays/best?src="+src+"&dst="+dst)
		countries[src], countries[dst] = true, true
	}
	sort.Strings(best)
	rng.Shuffle(len(best), func(i, j int) { best[i], best[j] = best[j], best[i] })
	ccs := make([]string, 0, len(countries))
	for c := range countries {
		ccs = append(ccs, c)
	}
	sort.Strings(ccs)
	rng.Shuffle(len(ccs), func(i, j int) { ccs[i], ccs[j] = ccs[j], ccs[i] })
	for _, cc := range ccs[:min(8, len(ccs))] {
		filters = append(filters,
			"/v1/plans?src="+cc+"&improved=true",
			"/v1/relays?type=COR&cc="+cc,
			"/v1/facilities?cc="+cc)
	}
	return best, filters
}

// schedule draws n request URLs: nine in ten walk the best-relay list in
// order, the rest pick a filter at random.
func schedule(best, filters []string, n int, rng *rand.Rand) []string {
	out := make([]string, n)
	j := 0
	for i := range out {
		if rng.Intn(10) == 0 {
			out[i] = filters[rng.Intn(len(filters))]
		} else {
			out[i] = best[j%len(best)]
			j++
		}
	}
	return out
}

// host is a running server process.
type host struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	base  string
	start time.Time
	done  bool
}

func startHost(traced bool) (*host, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve-host", fmt.Sprintf("-trace-handler=%v", traced))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	h := &host{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := h.out.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		h.kill()
		return nil, fmt.Errorf("server did not report its address (%q, %v)", line, err)
	}
	h.base = "http://" + addr
	return h, nil
}

// waitReady polls /readyz and returns the time from process start to
// its first 200.
func (h *host) waitReady(c *http.Client) (time.Duration, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(h.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // a drained body's close error carries nothing
			if resp.StatusCode == http.StatusOK {
				return time.Since(h.start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("server not ready within 60s")
}

func (h *host) mark() error {
	_, err := io.WriteString(h.stdin, "mark\n")
	return err
}

// stop ends the server and returns its report.
func (h *host) stop() (hostReport, error) {
	var rep hostReport
	h.done = true
	if err := h.stdin.Close(); err != nil {
		h.kill()
		return rep, err
	}
	line, rerr := h.out.ReadString('\n')
	werr := h.cmd.Wait()
	if rerr != nil || werr != nil {
		return rep, fmt.Errorf("server exit: read %v, wait %v", rerr, werr)
	}
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return rep, fmt.Errorf("server report: %w", err)
	}
	return rep, nil
}

// kill ends the server on an error path; safe to call after stop.
func (h *host) kill() {
	if h.done {
		return
	}
	h.done = true
	_ = h.cmd.Process.Kill() // the process may already have exited
	_ = h.cmd.Wait()         // reaps it; its exit status is the kill
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// sample is one request of an open-loop phase; times are nanoseconds
// from the phase start.
type sample struct {
	due, send, done int64
	ok              bool
	match           uint8 // bit i: body equals the reference of world i
}

// openLoop sends urls[i] at phase start + i/rate whether or not earlier
// requests have returned, over one keep-alive connection per client, and
// times each from its due time. stop, when non-nil, ends the phase early
// once it is closed. refs are the bodies of the worlds the server may be
// on.
func openLoop(t0 time.Time, clients []*http.Client, base string, urls []string, rate float64,
	refs []map[string][]byte, stop <-chan struct{}) []sample {
	out := make([]sample, len(urls))
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var sl preciseSleeper
			sl.lock()
			defer sl.unlock()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(urls) || stopped.Load() {
					return
				}
				due := int64(float64(i) * interval)
				if d := time.Duration(due - int64(time.Since(t0))); d > 0 {
					sl.sleep(d)
				}
				if stop != nil {
					select {
					case <-stop:
						stopped.Store(true)
						return
					default:
					}
				}
				s := sample{due: due, send: int64(time.Since(t0))}
				resp, err := c.Get(base + urls[i])
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					_ = resp.Body.Close() // the body was read to the end or failed; either is handled below
					s.ok = err == nil && resp.StatusCode == http.StatusOK
				}
				s.done = int64(time.Since(t0))
				for k, ref := range refs {
					if s.ok && bytes.Equal(buf.Bytes(), ref[urls[i]]) {
						s.match |= 1 << k
					}
				}
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	// Requests never sent because the phase stopped early are dropped.
	n := 0
	for _, s := range out {
		if s.done > 0 {
			out[n] = s
			n++
		}
	}
	return out[:n]
}

// closedLoop sends urls over one new keep-alive connection to addr,
// each as soon as the previous one has returned, until d has passed or
// the list is spent. Both processes stay busy, so the service time pays
// neither the idle wake-ups of an open loop at a low rate nor the
// queueing of one near its knee. Every body must equal ref's.
func closedLoop(addr string, urls []string, d time.Duration, ref map[string][]byte) ([]sample, error) {
	rc, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	out := make([]sample, 0, len(urls))
	var buf bytes.Buffer
	t0 := time.Now()
	for _, u := range urls {
		s := sample{send: int64(time.Since(t0))}
		if s.send >= int64(d) {
			break
		}
		s.due = s.send
		status, err := rc.get(u, &buf)
		s.done = int64(time.Since(t0))
		s.ok = err == nil && status == http.StatusOK
		if s.ok && bytes.Equal(buf.Bytes(), ref[u]) {
			s.match = 1
		}
		out = append(out, s)
		if err != nil {
			break // the connection is in an unknown state; the failed read is counted
		}
	}
	return out, nil
}

// rawConn is one keep-alive HTTP/1.1 connection that writes each request
// and parses its response on the calling goroutine. net/http's Transport
// passes every request through a write and a read goroutine of its own,
// whose wake-ups would add tens of microseconds of client time, and their
// jitter, to a read the server answers in about as much.
type rawConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{conn: c, br: bufio.NewReader(c)}, nil
}

// get sends GET url, reads the response body into buf and returns the
// status. An error leaves the connection unusable.
func (r *rawConn) get(url string, buf *bytes.Buffer) (int, error) {
	r.req = append(append(append(r.req[:0], "GET "...), url...), " HTTP/1.1\r\nHost: perfbench\r\n\r\n"...)
	if _, err := r.conn.Write(r.req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(r.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body was read to the end or failed; either is returned
	return resp.StatusCode, err
}

func (r *rawConn) close() { _ = r.conn.Close() } // the benchmark is done with the connection either way

// serviceMs returns request service times (send to last byte), in ms.
func serviceMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.done-s.send) / 1e6
	}
	return out
}

// latencies returns request latencies from due time, in ms.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.done-s.due) / 1e6
	}
	return out
}

// rung is one offered rate of the ladder.
type rung struct {
	rate                float64
	p50, p90, p99, late float64 // ms from due time; late is the p99 of send minus due
	svcP50              float64 // ms from send
	backlog             bool
	n                   int
}

func measureRung(ss []sample, rate float64) rung {
	r := rung{rate: rate, n: len(ss)}
	lat := latencies(ss)
	r.p50, r.p90, r.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	late := make([]float64, len(ss))
	svc := make([]float64, len(ss))
	for i, s := range ss {
		late[i] = float64(s.send-s.due) / 1e6
		svc[i] = float64(s.done-s.send) / 1e6
	}
	r.late = quantile(late, 0.99)
	r.svcP50 = quantile(svc, 0.5)
	// A growing backlog shows as the last quarter of the phase starting
	// later than the limit allows.
	r.backlog = quantile(late[len(late)*3/4:], 0.5) > p99LimitMs
	return r
}

// swapRec is one POST /v1/admin/swap, client-timed, in ns from the swap
// phase start.
type swapRec struct {
	start, end int64
	target     int // reference index
	ok         bool
}

func serveWorkload(rep *scorecard, run runOpts) error {
	rng := rand.New(rand.NewSource(run.seed))
	fmt.Printf("%-8s workload seed %d -> boot world %d, swap world %d\n", "serve", run.seed, bootSeed, swapSeed)

	// References: the exact bodies each world must serve.
	refs := make([]*reference, 2)
	for i, s := range []int64{bootSeed, swapSeed} {
		r, err := buildReference(s)
		if err != nil {
			return err
		}
		want, ok := goldenServe(s)
		rep.check(ok && r.pin == want, "serve world %d: plan table %+v, pinned %+v", s, r.pin, want)
		refs[i] = r
	}
	best, filters := readMix(refs[0], refs[1], rng)
	all := append(append([]string{}, best...), filters...)
	bodies := make([]map[string][]byte, 2)
	for i, r := range refs {
		bodies[i] = make(map[string][]byte, len(all))
		for _, u := range all {
			b, err := r.get(u)
			if err != nil {
				return err
			}
			bodies[i][u] = bytes.Clone(b)
		}
	}
	pairs := []float64{float64(refs[0].pin.Observations), float64(refs[1].pin.Observations)}
	refs = nil
	fmt.Printf("%-8s read mix: %d corridors, %d filters\n", "serve", len(best), len(filters))

	// The budget in 36ths: most goes to the closed-loop blocks behind
	// op_p50_ms and to the swaps behind run_s, the rest to the ladder's
	// printed rungs and the boots.
	unit := run.budget / 36
	rungLen, blockLen, swapLen := unit, 3*unit, 8*unit
	// rungAt offers one rate for d over clients; every read must carry the
	// boot world's body.
	rungAt := func(clients []*http.Client, base string, rate float64, d time.Duration) rung {
		ss := openLoop(time.Now(), clients, base, schedule(best, filters, int(rate*d.Seconds()), rng), rate, bodies[:1], nil)
		checkReads(rep, ss, 1, fmt.Sprintf("rate %.0f", rate))
		r := measureRung(ss, rate)
		fmt.Printf("%-8s rate %5.0f/s: read_p50_ms %.4f read_p90_ms %.4f read_p99_ms %.4f gen.late_p99_ms %.4f service_p50_ms %.4f backlog %v (n=%d)\n",
			"serve", rate, r.p50, r.p90, r.p99, r.late, r.svcP50, r.backlog, r.n)
		return r
	}
	// closed runs one closed-loop block for d and returns its service
	// times; every read must carry the boot world's body.
	closed := func(base string, d time.Duration) ([]float64, error) {
		ss, err := closedLoop(strings.TrimPrefix(base, "http://"), schedule(best, filters, int(closedCap*d.Seconds()), rng), d, bodies[0])
		if err != nil {
			return nil, err
		}
		checkReads(rep, ss, 1, "closed loop")
		svc := serviceMs(ss)
		fmt.Printf("%-8s closed loop: service_p50_ms %.4f (n=%d)\n", "serve", median(svc), len(svc))
		return svc, nil
	}
	var untracedP50 float64
	if run.traced {
		// The untraced server, for the tracing overhead.
		h, err := startHost(false)
		if err != nil {
			return err
		}
		err = func() error {
			defer h.kill()
			if _, err := h.waitReady(newClient()); err != nil {
				return err
			}
			if err := warmPass(rep, newClient(), h.base, all, bodies[0]); err != nil {
				return err
			}
			svc, err := closed(h.base, 4*unit)
			if err != nil {
				return err
			}
			untracedP50 = median(svc)
			_, err = h.stop()
			return err
		}()
		if err != nil {
			return err
		}
	}

	// Boot: process start to /readyz 200, several times; the last server
	// stays up for the load phases.
	var setups []float64
	var h *host
	for i := 0; i < boots; i++ {
		var err error
		h, err = startHost(run.traced)
		if err != nil {
			return err
		}
		d, err := h.waitReady(newClient())
		rep.check(err == nil, "serve boot %d: %v", i, err)
		if err != nil {
			h.kill()
			return err
		}
		setups = append(setups, d.Seconds())
		if i < boots-1 {
			if _, err := h.stop(); err != nil {
				return err
			}
		}
	}
	defer h.kill()

	clients := []*http.Client{newClient(), newClient()}
	if err := warmPass(rep, clients[0], h.base, all, bodies[0]); err != nil {
		return err
	}
	if err := h.mark(); err != nil {
		return err
	}

	// Ladder: each offered rate for one rung, with a closed-loop block
	// before each rung and after the last, so that the seconds-long slow
	// and fast spells of a shared host average out over the run.
	var rungs []rung
	var ref rung
	var svc []float64
	for i := 0; i <= len(rateLadder); i++ {
		for _, c := range clients {
			c.CloseIdleConnections() // two connections at most are open at once
		}
		ss, err := closed(h.base, blockLen)
		if err != nil {
			return err
		}
		svc = append(svc, ss...)
		if i == len(rateLadder) {
			break
		}
		r := rungAt(clients, h.base, rateLadder[i], rungLen)
		rungs = append(rungs, r)
		if r.rate == refRate {
			ref = r
		}
	}

	// Swaps: one connection reads at swapRate while the other swaps
	// the world back and forth, in pairs, for swapLen.
	swaps, reads, err := swapPhase(h.base, []int64{bootSeed, swapSeed}, best, filters, rng, bodies, swapLen)
	if err != nil {
		return err
	}
	var swapS, swapPPS, swapLat []float64
	for _, s := range swaps {
		rep.check(s.ok, "swap to world index %d failed", s.target)
		d := float64(s.end-s.start) / 1e9
		swapS = append(swapS, d)
		swapPPS = append(swapPPS, pairs[s.target]/d)
	}
	for _, r := range reads {
		rep.check(r.ok && r.match&allowedWorlds(r, swaps) != 0,
			"read during swaps (sent %dns) returned a body of neither allowed world", r.send)
		if duringSwap(r.due, swaps) {
			swapLat = append(swapLat, float64(r.done-r.due)/1e6)
		}
	}

	hr, err := h.stop()
	if err != nil {
		return err
	}

	maxRPS := 0.0
	for _, r := range rungs {
		if r.p99 <= p99LimitMs && !r.backlog {
			maxRPS = r.rate
		}
	}
	rep.put("setup_s", "s", median(setups), len(setups))
	rep.put("run_s", "s", median(swapS), len(swapS))
	rep.put("pairs_per_s", "1/s", median(swapPPS), len(swapPPS))
	rep.put("live_heap_mb", "MB", hr.HeapMB, 1)
	rep.put("op_p50_ms", "ms", median(svc), len(svc))
	rep.put("read_p50_ms", "ms", ref.p50, ref.n)
	rep.put("read_p99_ms", "ms", ref.p99, ref.n)
	rep.put("gen.late_p99_ms", "ms", ref.late, ref.n)
	rep.put("max_rps", "1/s", maxRPS, len(rungs))
	rep.put("swap_s", "s", median(swapS), len(swapS))
	rep.put("swap_read_p99_ms", "ms", quantile(swapLat, 0.99), len(swapLat))
	if !run.traced {
		return nil
	}

	// Per-layer numbers of the build the server runs at boot and on every
	// swap, traced from this process over the same world.
	tr := newTracer(fmt.Sprintf("serve-seed%d-%d", run.seed, time.Now().UnixNano()))
	spec := serveBootSpec(bootSeed)
	var traced []repOutcome
	for i := 0; i < 3; i++ {
		o, err := runCampaignRep(spec, bootSeed, tr)
		if err != nil {
			return err
		}
		traced = append(traced, o)
	}
	layerMetrics(rep, "serve", spec, traced, tr)
	rep.put("serve.build_world_s", "s", median(hr.Builds), len(hr.Builds))
	rep.put("serve.warm_campaign_s", "s", median(hr.Campaigns), len(hr.Campaigns))
	paths := make([]string, 0, len(hr.Routes))
	for p := range hr.Routes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var nReq int
	var nBytes int64
	for _, p := range paths {
		r := hr.Routes[p]
		name := strings.ReplaceAll(strings.TrimPrefix(p, "/"), "/", "_")
		rep.put("serve.handler_p50_us."+name, "us", r.P50us, r.Requests)
		rep.put("serve.handler_p99_us."+name, "us", r.P99us, r.Requests)
		nReq += r.Requests
		nBytes += r.Bytes
	}
	if r, ok := hr.Routes["/v1/relays/best"]; ok {
		rep.put("serve.net_p50_us", "us", median(svc)*1e3-r.P50us, len(svc))
	}
	rep.put("serve.bytes_per_req", "B", float64(nBytes)/float64(max(nReq, 1)), nReq)
	rep.put("go.alloc_mb", "MB", hr.Go.AllocMB, 1)
	rep.put("go.gc_cycles", "count", hr.Go.GCCycles, 1)
	rep.put("go.gc_pause_p99_ms", "ms", hr.Go.PauseP99Ms, 1)
	rep.put("trace.overhead_pct", "%", 100*(median(svc)/untracedP50-1), len(svc))
	path, err := tr.write(traceDir, tr.run+".json")
	if err != nil {
		return err
	}
	fmt.Printf("%-8s trace written to %s\n", "serve", path)
	return nil
}

// warmPass requests every URL of the mix once, in order, and checks each
// body; it also fills the server's per-corridor render cache.
func warmPass(rep *scorecard, c *http.Client, base string, urls []string, want map[string][]byte) error {
	for _, u := range urls {
		resp, err := c.Get(base + u)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // fully read; nothing left to report
		rep.check(err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, want[u]),
			"GET %s: status %d, body differs from the reference", u, resp.StatusCode)
	}
	return nil
}

// checkReads counts every read of a phase, which had to match the
// reference bodies selected by mask.
func checkReads(rep *scorecard, ss []sample, mask uint8, phase string) {
	for _, s := range ss {
		rep.check(s.ok && s.match&mask != 0, "%s: read due at %dns failed or returned a wrong body", phase, s.due)
	}
}

// swapPhase reads on one connection while the other alternates the
// server between the two worlds, an even number of swaps so the server
// ends on the boot world. Swaps continue until budget has passed.
func swapPhase(base string, seeds []int64, best, filters []string, rng *rand.Rand, bodies []map[string][]byte,
	budget time.Duration) ([]swapRec, []sample, error) {
	admin := newClient()
	stop := make(chan struct{})
	urls := schedule(best, filters, int(swapRate*(budget.Seconds()+30)), rng)
	var swaps []swapRec
	var swapErr error
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 0; k == 0 || k%2 == 1 || time.Since(t0) < budget; k++ {
			target := 1 - k%2
			s := swapRec{start: int64(time.Since(t0)), target: target}
			resp, err := admin.Post(fmt.Sprintf("%s/v1/admin/swap?seed=%d", base, seeds[target]), "", nil)
			if err != nil {
				swapErr = err
				return
			}
			var body struct {
				Swapped bool `json:"swapped"`
				State   struct {
					Seed int64 `json:"seed"`
				} `json:"state"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			_ = resp.Body.Close() // decoded or failed; both are recorded
			s.end = int64(time.Since(t0))
			s.ok = derr == nil && resp.StatusCode == http.StatusOK && body.Swapped && body.State.Seed == seeds[target]
			swaps = append(swaps, s)
		}
	}()
	reads := openLoop(t0, []*http.Client{newClient()}, base, urls, swapRate, bodies, stop)
	wg.Wait()
	if swapErr != nil {
		return nil, nil, swapErr
	}
	return swaps, reads, nil
}

// allowedWorlds returns the reference mask a read may match: the world
// served before the swap it overlaps, or the one it swaps to.
func allowedWorlds(r sample, swaps []swapRec) uint8 {
	cur := 0 // boot world
	for _, s := range swaps {
		if r.done <= s.start {
			return 1 << cur
		}
		if r.send < s.end {
			return 1<<cur | 1<<s.target
		}
		cur = s.target
	}
	return 1 << cur
}

func duringSwap(due int64, swaps []swapRec) bool {
	for _, s := range swaps {
		if due >= s.start && due < s.end {
			return true
		}
	}
	return false
}

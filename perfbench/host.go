package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"shortcuts/internal/serve"
)

// hostReport is what the server process tells the benchmark when it is
// told to stop.
type hostReport struct {
	HeapMB    float64                `json:"heap_mb"`
	Go        goDelta                `json:"go"`
	Builds    []float64              `json:"world_build_s"`
	Campaigns []float64              `json:"warm_campaign_s"`
	Routes    map[string]routeReport `json:"routes,omitempty"`
}

type routeReport struct {
	Requests int     `json:"requests"`
	P50us    float64 `json:"p50_us"`
	P99us    float64 `json:"p99_us"`
	Bytes    int64   `json:"bytes"`
}

// hostMain is the server process of the serve workload: relayserve's
// default service (serve.Options defaults, calm scenario) on a loopback
// port. It prints "listening ADDR", builds in the background like
// relayserve, and reads commands from stdin: "mark" restarts the runtime
// and handler counters; end of input makes it collect, print a
// hostReport as one JSON line, and exit. -trace-handler wraps Handler()
// to time each request per route; it is the only difference between a
// traced and an untraced server.
func hostMain(args []string) error {
	fs := flag.NewFlagSet("serve-host", flag.ContinueOnError)
	traceHandler := fs.Bool("trace-handler", false, "time every request per route")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		logMu            sync.Mutex
		builds, campaign []float64
	)
	srv, err := serve.New(serve.Options{Logf: func(format string, args ...any) {
		// "serving seed .. (world %v, campaign %v)" after boot and
		// "swapped to seed .. (world %v, campaign %v)" after a swap.
		if !strings.HasPrefix(format, "serving seed") && !strings.HasPrefix(format, "swapped to seed") {
			return
		}
		if len(args) < 2 {
			return
		}
		wd, ok1 := args[len(args)-2].(time.Duration)
		cd, ok2 := args[len(args)-1].(time.Duration)
		if ok1 && ok2 {
			logMu.Lock()
			builds = append(builds, wd.Seconds())
			campaign = append(campaign, cd.Seconds())
			logMu.Unlock()
		}
	}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	var routes *routeStats
	if *traceHandler {
		routes = &routeStats{}
		h = routes.wrap(h)
	}
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	warmed := make(chan error, 1)
	go func() { warmed <- srv.Warm() }()
	fmt.Printf("listening %s\n", ln.Addr())

	g0 := readGoStats()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() == "mark" {
			g0 = readGoStats()
			if routes != nil {
				routes.reset()
			}
		}
	}
	g1 := readGoStats()
	if err := httpSrv.Close(); err != nil {
		return err
	}
	<-served
	if err := <-warmed; err != nil {
		return err
	}
	rep := hostReport{Go: g0.to(g1), HeapMB: liveHeapMB()}
	runtime.KeepAlive(srv)
	logMu.Lock()
	rep.Builds, rep.Campaigns = builds, campaign
	logMu.Unlock()
	if routes != nil {
		rep.Routes = routes.report()
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// routeStats times Handler() per route path.
type routeStats struct {
	mu sync.Mutex
	m  map[string]*routeAcc
}

type routeAcc struct {
	durs  []float64 // microseconds
	bytes int64
}

func (rs *routeStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		t := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t)
		rs.mu.Lock()
		if rs.m == nil {
			rs.m = make(map[string]*routeAcc)
		}
		acc := rs.m[r.URL.Path]
		if acc == nil {
			acc = &routeAcc{}
			rs.m[r.URL.Path] = acc
		}
		acc.durs = append(acc.durs, float64(d.Nanoseconds())/1e3)
		acc.bytes += cw.n
		rs.mu.Unlock()
	})
}

func (rs *routeStats) reset() {
	rs.mu.Lock()
	rs.m = nil
	rs.mu.Unlock()
}

func (rs *routeStats) report() map[string]routeReport {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string]routeReport, len(rs.m))
	for p, acc := range rs.m {
		out[p] = routeReport{Requests: len(acc.durs), P50us: quantile(acc.durs, 0.5),
			P99us: quantile(acc.durs, 0.99), Bytes: acc.bytes}
	}
	return out
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

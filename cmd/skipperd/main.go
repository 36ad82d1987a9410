// Command skipperd is the long-lived serving daemon over a generated
// dataset: a TCP server speaking the newline-delimited JSON protocol of
// internal/server, with per-connection tenant sessions, persistent
// per-tenant segment caches and admission control (bounded in-flight
// slots, per-tenant quotas with fair queueing, queue-depth backpressure,
// per-query deadlines).
//
// Modes:
//
//	skipperd [dataset flags] [serving flags]      start the daemon
//	skipperd -client [-tenant N] [-c STMT]        run statements against a daemon
//	skipperd -loadgen -workers N -duration D      closed-loop load, latency percentiles
//
// The dataset flags mirror skipperql, and -client prints result rows in
// skipperql's exact format (40-row truncation, "(N rows)" footer,
// diagnostics prefixed "-- "), so a scripted session can be diffed
// against a skipperql run of the same statements.
//
// Observability: -metrics-addr starts an HTTP sidecar serving the
// Prometheus exposition (/metrics) and runtime profiles (/debug/pprof);
// -trace captures a span tree for every query (clients may instead opt
// in per request with trace:true, and retrieve trees with TRACE <id>);
// -trace-dir writes each completed trace as a Chrome trace-event JSON
// file; -slow-query logs queries over a wall-time threshold to stderr.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"context"

	"repro/internal/cliconfig"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	// Mode selection.
	clientMode := flag.Bool("client", false, "connect to a daemon and run statements instead of serving")
	loadgen := flag.Bool("loadgen", false, "drive closed-loop load against a daemon and report latency percentiles")
	addr := flag.String("addr", "127.0.0.1:7878", "listen (serve) or connect (client/loadgen) address")

	// Dataset, engine, pipeline, fleet, fault and retry flags (serve
	// mode) — shared with skipperql. Faults are a deterministic chaos
	// schedule applied to every query's device run, the serving twin of
	// `skipperbench -faults`.
	shared := cliconfig.Bind(flag.CommandLine, cliconfig.Options{SegCache: 8})

	// Serving flags.
	inflight := flag.Int("inflight", 4, "queries executing concurrently, across all tenants")
	tenantSlots := flag.Int("tenant-slots", 0, "one tenant's maximum share of -inflight (0 = no per-tenant cap)")
	queueDepth := flag.Int("queue-depth", 0, "queries waiting for a slot before rejection (0 = 4x inflight, negative = no queueing)")
	maxTenants := flag.Int("tenants", 8, "acceptable tenant ids: [0, N)")
	deadline := flag.Duration("deadline", 0, "default per-query deadline (0 = unbounded); queries may override with deadline_ms")
	maxLine := flag.Int("max-line", server.DefaultMaxLineBytes, "request frame size limit in bytes")

	// Observability flags (serve mode).
	metricsAddr := flag.String("metrics-addr", "", "HTTP sidecar address serving /metrics (Prometheus) and /debug/pprof (empty = off)")
	traceAll := flag.Bool("trace", false, "capture a span tree for every query (clients can also opt in per request)")
	traceDir := flag.String("trace-dir", "", "write every completed query trace as a Chrome trace-event JSON file into this directory")
	slowQuery := flag.Duration("slow-query", 0, "log queries whose wall time (queue wait included) meets this threshold (0 = off)")

	// Client / loadgen flags.
	tenant := flag.Int("tenant", -1, "tenant to bind the session to (client/loadgen; -1 = server default)")
	command := flag.String("c", "", "statements to run, ';'-separated (client/loadgen); client mode reads stdin when empty")
	workers := flag.Int("workers", 4, "concurrent loadgen clients")
	duration := flag.Duration("duration", 5*time.Second, "loadgen run length")

	flag.Parse()
	sc, err := shared.Config()
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *clientMode && *loadgen:
		fatalf("pick one of -client and -loadgen")
	case *clientMode:
		os.Exit(runClient(*addr, *tenant, *command))
	case *loadgen:
		os.Exit(runLoadgen(*addr, *tenant, *command, *workers, *duration))
	}

	// Serve mode.
	ds, err := sc.Dataset()
	if err != nil {
		fatalf("dataset: %v", err)
	}
	cfg := server.Config{
		Dataset:         ds,
		Mode:            sc.Mode,
		CacheObjects:    sc.Cache,
		SegCacheObjects: sc.SegCache,
		Prune:           sc.Prune,
		Pipeline:        sc.Pipeline,
		Devices:         sc.Devices,
		Replication:     sc.Replication,
		Faults:          sc.Faults,
		Retry:           sc.Retry,
		MaxTenants:      *maxTenants,
		Admission: server.AdmissionConfig{
			Slots:       *inflight,
			TenantSlots: *tenantSlots,
			QueueDepth:  *queueDepth,
		},
		DefaultDeadline: *deadline,
		MaxLineBytes:    *maxLine,
		Tracing:         *traceAll,
		SlowQuery:       *slowQuery,
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf("trace-dir: %v", err)
		}
		cfg.TraceSink = chromeTraceSink(*traceDir)
	}
	s, err := server.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	bound, err := s.Start(*addr)
	if err != nil {
		fatalf("%v", err)
	}
	adm := s.Admission().Config()
	fmt.Printf("skipperd: serving %s dataset (%d objects, format=%s, engine=%s) on %s\n",
		sc.Workload, len(ds.Catalog.AllObjects()), sc.Format, sc.Mode, bound)
	fmt.Printf("skipperd: admission %d in flight (%d per tenant), queue depth %d, tenants [0,%d)\n",
		adm.Slots, adm.TenantSlots, adm.QueueDepth, *maxTenants)
	if sc.Devices > 1 {
		fmt.Printf("skipperd: device fleet of %d, replication %s\n", sc.Devices, sc.Replication)
	}
	if plan := sc.Faults; plan != nil {
		fmt.Printf("skipperd: fault injection on (seed %d): transient %.2f, stall %.2f×%s, corrupt %.2f, cap %d, crash %s+%s\n",
			plan.Seed, plan.TransientRate, plan.StallRate, plan.Stall, plan.CorruptRate,
			plan.MaxFaultsPerObject, plan.CrashAt, plan.CrashDowntime)
	}
	if *metricsAddr != "" {
		dbg, err := s.ServeDebug(*metricsAddr)
		if err != nil {
			fatalf("metrics-addr: %v", err)
		}
		fmt.Printf("skipperd: metrics and pprof on http://%s (/metrics, /debug/pprof)\n", dbg)
	}
	if *slowQuery > 0 {
		fmt.Printf("skipperd: logging queries slower than %s to stderr\n", *slowQuery)
	}
	if *traceDir != "" {
		fmt.Printf("skipperd: writing query traces to %s\n", *traceDir)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	fmt.Println("skipperd: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "skipperd: forced shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("skipperd: bye")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "skipperd: "+format+"\n", args...)
	os.Exit(2)
}

// chromeTraceSink writes each completed trace as <dir>/<trace-id>.json
// in Chrome trace-event format. Trace ids contain no path separators
// (t<tenant>-<seq>), and failures are reported, not fatal — tracing
// must never take the server down.
func chromeTraceSink(dir string) func(*trace.Export) {
	return func(e *trace.Export) {
		path := filepath.Join(dir, e.ID+".json")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipperd: trace-dir: %v\n", err)
			return
		}
		defer f.Close()
		if err := trace.WriteChrome(f, trace.ClockWall, e); err != nil {
			fmt.Fprintf(os.Stderr, "skipperd: trace-dir: %s: %v\n", path, err)
		}
	}
}

// dial connects with retries so scripts can start the daemon and the
// client back to back without sleeping.
func dial(addr string) (net.Conn, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("connect %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// wire is one client session over the daemon's protocol.
type wire struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialWire(addr string) (*wire, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &wire{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}, nil
}

func (w *wire) roundTrip(req server.Request) (*server.Response, error) {
	if err := w.enc.Encode(&req); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	var resp server.Response
	if err := w.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("recv: %w", err)
	}
	return &resp, nil
}

// runClient executes statements (from -c, ';'-separated, or stdin one
// statement per line) and prints responses in skipperql's format. Exit
// status 0 only if every statement succeeded.
func runClient(addr string, tenant int, command string) int {
	w, err := dialWire(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipperd: %v\n", err)
		return 1
	}
	defer w.conn.Close()
	if tenant >= 0 {
		if resp, err := w.roundTrip(server.Request{Op: server.OpHello, Tenant: &tenant}); err != nil {
			fmt.Fprintf(os.Stderr, "skipperd: hello: %v\n", err)
			return 1
		} else if resp.Type == "error" {
			fmt.Fprintf(os.Stderr, "skipperd: hello: %s: %s\n", resp.Code, resp.Error)
			return 1
		}
	}
	status := 0
	run := func(stmt string) {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			return
		}
		resp, err := w.roundTrip(server.Request{SQL: stmt})
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipperd: %v\n", err)
			status = 1
			return
		}
		if !printResponse(resp) {
			status = 1
		}
	}
	if command != "" {
		for _, stmt := range strings.Split(command, ";") {
			run(stmt)
		}
		return status
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		run(scanner.Text())
	}
	return status
}

// printResponse renders one frame; result rows match skipperql's
// printRows byte for byte. Returns false for error frames.
func printResponse(resp *server.Response) bool {
	switch resp.Type {
	case "result":
		for i, r := range resp.Rows {
			if i >= 40 {
				fmt.Printf("... (%d rows total)\n", resp.RowCount)
				break
			}
			fmt.Println(r)
		}
		if resp.RowCount <= 40 {
			fmt.Printf("(%d rows)\n", resp.RowCount)
		}
		fmt.Printf("-- %s virtual, %s queued, %d GETs (%d from cache, %d pruned)\n",
			time.Duration(resp.VirtualUS)*time.Microsecond,
			time.Duration(resp.QueueUS)*time.Microsecond,
			resp.Gets, resp.CacheHits, resp.Pruned)
		return true
	case "explain":
		fmt.Print(resp.Plan)
		return true
	case "stats":
		out, err := json.MarshalIndent(resp.Stats, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipperd: render stats: %v\n", err)
			return false
		}
		fmt.Println(string(out))
		return true
	case "trace":
		if resp.Trace == nil {
			fmt.Fprintln(os.Stderr, "skipperd: empty trace frame")
			return false
		}
		fmt.Print(resp.Trace.Summary())
		printSpanTree(resp.Trace)
		return true
	case "hello":
		fmt.Printf("-- bound to tenant %d\n", resp.Tenant)
		return true
	case "error":
		fmt.Fprintf(os.Stderr, "skipperd: %s error: %s\n", resp.Code, resp.Error)
		return false
	default:
		fmt.Fprintf(os.Stderr, "skipperd: unexpected frame type %q\n", resp.Type)
		return false
	}
}

// printSpanTree renders a trace's spans as an indented tree in
// recording order: wall bounds always, virtual bounds when the span
// was stamped by the simulation.
func printSpanTree(e *trace.Export) {
	children := map[int][]trace.Span{}
	for _, sp := range e.Spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, sp := range children[parent] {
			line := fmt.Sprintf("%*s%s %s  wall %s..%s", 2*depth, "", sp.Cat, sp.Name,
				sp.WallStart.Round(time.Microsecond), sp.WallEnd.Round(time.Microsecond))
			if sp.HasVirt {
				line += fmt.Sprintf("  virt %s..%s",
					sp.VirtStart.Round(time.Millisecond), sp.VirtEnd.Round(time.Millisecond))
			}
			fmt.Println(line)
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
}

// runLoadgen drives closed-loop load: `workers` connections (spread
// over tenants [0, -tenants) unless -tenant pins one) each repeat the
// statement mix until the duration elapses. Latency is measured
// client-side into the same sketch the server uses, so the report and
// the STATS verb agree on definitions.
func runLoadgen(addr string, tenant int, command string, workers int, duration time.Duration) int {
	stmts := []string{"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name"}
	if command != "" {
		stmts = stmts[:0]
		for _, stmt := range strings.Split(command, ";") {
			if stmt = strings.TrimSpace(stmt); stmt != "" {
				stmts = append(stmts, stmt)
			}
		}
	}
	if workers < 1 {
		workers = 1
	}
	var (
		sketch   metrics.LatencySketch
		mu       sync.Mutex
		done     int64
		rejected int64
		failed   int64
	)
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := tenant
			if tn < 0 {
				tn = i % 4
			}
			w, err := dialWire(addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "skipperd: worker %d: %v\n", i, err)
				mu.Lock()
				failed++
				mu.Unlock()
				return
			}
			defer w.conn.Close()
			if _, err := w.roundTrip(server.Request{Op: server.OpHello, Tenant: &tn}); err != nil {
				fmt.Fprintf(os.Stderr, "skipperd: worker %d: hello: %v\n", i, err)
				return
			}
			for q := 0; time.Now().Before(stop); q++ {
				start := time.Now()
				resp, err := w.roundTrip(server.Request{SQL: stmts[q%len(stmts)]})
				if err != nil {
					fmt.Fprintf(os.Stderr, "skipperd: worker %d: %v\n", i, err)
					mu.Lock()
					failed++
					mu.Unlock()
					return
				}
				mu.Lock()
				switch {
				case resp.Type == "result":
					sketch.Record(time.Since(start))
					done++
				case resp.Code == server.CodeOverloaded:
					rejected++ // backpressure: expected under saturation
				default:
					failed++
					fmt.Fprintf(os.Stderr, "skipperd: worker %d: %s error: %s\n", i, resp.Code, resp.Error)
				}
				mu.Unlock()
			}
		}(i)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	if elapsed > duration {
		elapsed = duration // workers stop on the shared deadline
	}
	snap := sketch.Snapshot()
	fmt.Printf("loadgen: %d workers, %v: %d ok, %d rejected, %d failed, %.1f q/s\n",
		workers, duration, done, rejected, failed, float64(done)/duration.Seconds())
	fmt.Printf("loadgen: latency %s\n", snap)

	// One final STATS frame: the server-side view of the same run.
	if w, err := dialWire(addr); err == nil {
		defer w.conn.Close()
		if resp, err := w.roundTrip(server.Request{Op: server.OpStats}); err == nil && resp.Stats != nil {
			fmt.Printf("server: %d in flight, %d queued; totals admitted=%d completed=%d rejected=%d expired=%d\n",
				resp.Stats.Inflight, resp.Stats.Queued,
				resp.Stats.Total.Admitted, resp.Stats.Total.Completed,
				resp.Stats.Total.Rejected, resp.Stats.Total.Expired)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

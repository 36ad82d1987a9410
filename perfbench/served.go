package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sessions is the number of closed-loop client sessions: one per CPU of
// the 2-CPU host the benchmark targets. The server keeps its default
// admission (four execution slots), so no query waits for a slot and
// latency percentiles do not depend on which statements happen to
// queue behind each other.
const sessions = 2

// servedWindow is how many statements a latency window holds: enough
// that its 95th percentile has 50 samples beyond it and its 99th ten.
const servedWindow = 1000

// served is a running in-process server with its client sessions.
type served struct {
	srv    *server.Server
	sess   []*session
	stmts  []string
	oracle [][]string
}

// session is one client connection, bound to its own tenant.
type session struct {
	tenant int
	conn   net.Conn
	enc    *json.Encoder
	dec    *json.Decoder
	rng    *rand.Rand // picks the next statement
}

// startServed boots a server over ds on loopback and opens one session
// per tenant. The seed drives each session's statement sequence.
func startServed(ds *workload.Dataset, segCache int, stmts []string, want [][]string, seed int64) (*served, error) {
	cfg := server.NewConfig(ds)
	cfg.SegCacheObjects = segCache
	cfg.Pipeline = pipeline()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &served{srv: srv, stmts: stmts, oracle: want}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server: %w", err)
	}
	for t := 0; t < sessions; t++ {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("session %d: %w", t, err)
		}
		ss := &session{
			tenant: t,
			conn:   conn,
			enc:    json.NewEncoder(conn),
			dec:    json.NewDecoder(bufio.NewReader(conn)),
			rng:    rand.New(rand.NewSource(seed*sessions + int64(t))),
		}
		s.sess = append(s.sess, ss)
		tenant := t
		resp, err := ss.roundTrip(&server.Request{Op: server.OpHello, Tenant: &tenant})
		if err == nil && resp.Type != "hello" {
			err = fmt.Errorf("%s: %s", resp.Code, resp.Error)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("session %d hello: %w", t, err)
		}
	}
	return s, nil
}

// close ends the sessions and shuts the server down.
func (s *served) close() {
	for _, ss := range s.sess {
		ss.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // a timeout here only means connections were force-closed
}

func (ss *session) roundTrip(req *server.Request) (*server.Response, error) {
	if err := ss.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	var resp server.Response
	if err := ss.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("receive: %w", err)
	}
	return &resp, nil
}

// warm runs every statement once on every session, then n more drawn
// from each session's sequence, checking every result.
func (s *served) warm(n int) error {
	for _, ss := range s.sess {
		for i := 0; i < len(s.stmts)+n; i++ {
			stmt := i
			if i >= len(s.stmts) {
				stmt = ss.rng.Intn(len(s.stmts))
			}
			resp, err := ss.roundTrip(&server.Request{SQL: s.stmts[stmt]})
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if msg := s.check(stmt, resp); msg != "" {
				return fmt.Errorf("warm-up: tenant %d: %s", ss.tenant, msg)
			}
		}
	}
	return nil
}

// check compares a response with the oracle; it returns "" on a match.
func (s *served) check(stmt int, resp *server.Response) string {
	switch {
	case resp.Type != "result":
		return fmt.Sprintf("statement %d: %s error: %s", stmt, resp.Code, resp.Error)
	case resp.RowCount != len(resp.Rows) || !sameRows(resp.Rows, s.oracle[stmt]):
		return fmt.Sprintf("statement %d: %d rows differ from the oracle's %d", stmt, resp.RowCount, len(s.oracle[stmt]))
	}
	return ""
}

// servedPhase is what a closed-loop phase observed.
type servedPhase struct {
	elapsed     time.Duration
	win         windowStats // medians over windows, see recorder
	meanMS      float64     // mean client round trip
	ok, failed  int64
	firstError  string
	virtUS      []float64 // server-reported simulated latency per statement kind, summed
	perStmt     []int64   // completed statements per kind
	wallUS      float64   // server-reported wall time, summed
	admitUS     float64   // time in admission, from traced statements' spans, summed
	overheadUS  float64   // round trip minus server wall time, summed
	gets, hits  int64
	pruned      int64
	deviceGets  float64 // demand plus prefetch GETs the device received
	tracedSpans int
}

// drive runs every session in a closed loop for d: each sends its next
// statement as soon as the previous answer arrived. With a tracer each
// statement asks for a trace and its span tree is fetched and nested
// under the benchmark's round-trip span.
func (s *served) drive(d time.Duration, tr *tracer) (*servedPhase, error) {
	dev0, err := s.deviceGets()
	if err != nil {
		return nil, err
	}
	phases := make([]*servedPhase, len(s.sess))
	errs := make([]error, len(s.sess))
	start := time.Now()
	deadline := start.Add(d)
	rec := newRecorder(servedWindow, 1)
	var wg sync.WaitGroup
	for i, ss := range s.sess {
		wg.Add(1)
		go func(i int, ss *session) {
			defer wg.Done()
			phases[i], errs[i] = s.loop(ss, deadline, rec, tr)
		}(i, ss)
	}
	wg.Wait()
	end := time.Now()
	total := &servedPhase{elapsed: end.Sub(start), virtUS: make([]float64, len(s.stmts)), perStmt: make([]int64, len(s.stmts))}
	total.win = rec.finish()
	total.meanMS = rec.meanMS()
	for i, p := range phases {
		if errs[i] != nil {
			return nil, fmt.Errorf("tenant %d: %w", s.sess[i].tenant, errs[i])
		}
		total.merge(p)
	}
	dev1, err := s.deviceGets()
	if err != nil {
		return nil, err
	}
	total.deviceGets = dev1 - dev0
	return total, nil
}

// loop is one session's closed loop.
func (s *served) loop(ss *session, deadline time.Time, rec *recorder, tr *tracer) (*servedPhase, error) {
	p := &servedPhase{virtUS: make([]float64, len(s.stmts)), perStmt: make([]int64, len(s.stmts))}
	for time.Now().Before(deadline) {
		stmt := ss.rng.Intn(len(s.stmts))
		req := &server.Request{SQL: s.stmts[stmt], Trace: tr != nil}
		t0 := time.Now()
		resp, err := ss.roundTrip(req)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if msg := s.check(stmt, resp); msg != "" {
			p.failed++
			if p.firstError == "" {
				p.firstError = msg
			}
			continue
		}
		rtt := t1.Sub(t0)
		p.ok++
		rec.add(t1, msOf(rtt))
		p.virtUS[stmt] += float64(resp.VirtualUS)
		p.perStmt[stmt]++
		p.wallUS += float64(resp.WallUS)
		p.overheadUS += usOf(rtt) - float64(resp.WallUS)
		p.gets += int64(resp.Gets)
		p.hits += int64(resp.CacheHits)
		p.pruned += int64(resp.Pruned)
		if tr != nil {
			e, err := s.fetchTrace(ss, tr, stmt, resp.TraceID, t0, t1)
			if err != nil {
				return nil, err
			}
			p.tracedSpans += len(e.Spans)
			for _, sp := range e.Spans {
				if sp.Cat == trace.CatAdmission {
					p.admitUS += usOf(sp.WallEnd - sp.WallStart)
				}
			}
		}
	}
	return p, nil
}

// fetchTrace records the round trip as an operation's root span and
// nests the server's span tree for it underneath, aligned to the send.
func (s *served) fetchTrace(ss *session, tr *tracer, stmt int, id string, t0, t1 time.Time) (*trace.Export, error) {
	op := tr.op()
	root := tr.add(op, 0, "server", "round trip statement "+strconv.Itoa(stmt), t0, t1)
	resp, err := ss.roundTrip(&server.Request{Op: server.OpTrace, TraceID: id})
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	if resp.Type != "trace" || resp.Trace == nil {
		return nil, fmt.Errorf("trace %s: %s: %s", id, resp.Code, resp.Error)
	}
	tr.adopt(op, root, t0, resp.Trace)
	return resp.Trace, nil
}

func (p *servedPhase) merge(o *servedPhase) {
	p.ok += o.ok
	p.failed += o.failed
	if p.firstError == "" {
		p.firstError = o.firstError
	}
	for i := range o.virtUS {
		p.virtUS[i] += o.virtUS[i]
		p.perStmt[i] += o.perStmt[i]
	}
	p.wallUS += o.wallUS
	p.admitUS += o.admitUS
	p.overheadUS += o.overheadUS
	p.gets += o.gets
	p.hits += o.hits
	p.pruned += o.pruned
	p.tracedSpans += o.tracedSpans
}

// outcome turns a phase into a result's correctness fields.
func (s *served) outcome(p *servedPhase) *result {
	if p.firstError != "" {
		fmt.Printf("# wrong result: %s\n", p.firstError)
	}
	return &result{Attempted: p.ok + p.failed, Failed: p.failed, Correct: p.failed == 0}
}

// virtMeanS is the mean simulated latency per statement, in seconds.
func (p *servedPhase) virtMeanS() float64 {
	sum := 0.0
	for _, v := range p.virtUS {
		sum += v
	}
	return ratio(sum, float64(p.ok)) / 1e6
}

// passS is the simulated time one pass over the statement list takes:
// the sum of each statement's mean simulated latency, in seconds.
func (p *servedPhase) passS() float64 {
	sum := 0.0
	for i, v := range p.virtUS {
		sum += ratio(v, float64(p.perStmt[i]))
	}
	return sum / 1e6
}

// deviceGets reads, from the server's metrics, the GETs its tenants sent
// to the device: demand and prefetch, summed over tenants and devices.
func (s *served) deviceGets() (float64, error) {
	var buf bytes.Buffer
	if err := s.srv.Metrics().WriteText(&buf); err != nil {
		return 0, fmt.Errorf("read server metrics: %w", err)
	}
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "skipper_device_gets_total{") &&
			!strings.HasPrefix(line, "skipper_device_prefetch_gets_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("read server metrics: %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

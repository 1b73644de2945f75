package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sepdc"
	"sepdc/internal/serveproto"
	"sepdc/internal/xrand"
)

// The open-loop generator: requests follow a fixed arrival schedule
// (request i of a segment is due at start + i/rate) whatever the server
// does, and each is timed from when it was due, so a stall charges every
// request queued behind it. At most conns requests are in flight, one per
// keep-alive connection; a request is sent by the first connection that
// is free at or after its due time, and how late that was is recorded.

const (
	binaryContentType = "application/x-sepdc-query"
	serveBatch        = 32 // open queries per request
	hotAnchors        = 8  // stored points the skewed queries cluster around
)

// reqRec is one scheduled request and what became of it.
type reqRec struct {
	frame   []byte
	queries [][]float64
	trace   sepdc.TraceContext // zero: the request carries no traceparent
	header  string             // rendered traceparent, when traced
	due     time.Duration      // offset from the segment start

	sent, done time.Time
	status     int
	resp       []byte
	err        error
	wrong      bool // answered, but not what the reference answers
}

func (r *reqRec) ok() bool {
	return r.err == nil && r.status == http.StatusOK && !r.wrong
}

// segment is one stretch of traffic at a fixed offered rate.
type segment struct {
	rate float64 // requests per second
	dur  time.Duration
	// capped segments end on time even when offered beyond the server's
	// capacity: a request not sent by the end of dur is dropped unsent.
	// Every request is then overdue, so each connection sends back to
	// back and the segment measures the server's saturated throughput.
	capped bool
	start  time.Time
	reqs   []*reqRec
}

// loadgen owns the HTTP client and the seeded request generator.
type loadgen struct {
	url    string
	client *http.Client
	conns  int
	d      int
	points [][]float64
	g      *xrand.RNG
	traceN uint64 // trace id counter, seeded
}

func newLoadgen(base string, conns, d int, points [][]float64, seed uint64) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		url:    base + "/query",
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		conns:  conns,
		d:      d,
		points: points,
		g:      xrand.New(seed*1_000_000_007 + 99),
		traceN: seed << 32,
	}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// segment pre-generates a segment's requests: 32 open queries each, half
// of them jittered (±0.01 per coordinate) around one of a few stored
// "hot" points chosen per request, so they land in the same leaves; the
// rest uniform over the unit cube. traced requests carry an unsampled
// traceparent whose id the benchmark chose.
func (lg *loadgen) segment(rate float64, dur time.Duration, traced, capped bool) *segment {
	n := int(rate * dur.Seconds())
	seg := &segment{rate: rate, dur: dur, capped: capped, reqs: make([]*reqRec, n)}
	for i := range seg.reqs {
		anchor := lg.points[lg.g.IntN(hotAnchors)*len(lg.points)/hotAnchors]
		qs := make([][]float64, serveBatch)
		for j := range qs {
			if j%2 == 0 {
				q := make([]float64, lg.d)
				for c := range q {
					q[c] = anchor[c] + (lg.g.Float64()-0.5)*0.02
				}
				qs[j] = q
			} else {
				qs[j] = lg.g.InCube(lg.d)
			}
		}
		r := &reqRec{
			frame:   serveproto.AppendRequest(nil, qs, lg.d, false),
			queries: qs,
			due:     time.Duration(float64(i) / rate * float64(time.Second)),
		}
		if traced {
			lg.traceN++
			r.trace = sepdc.GenerateTrace(0x5eed, lg.traceN)
			r.header = r.trace.Traceparent()
		}
		seg.reqs[i] = r
	}
	return seg
}

// run sends the segment on its schedule over at most conns connections
// and returns when every sent request is answered or given up. A capped
// segment keeps only the requests it sent. It collects the garbage of
// generating the segment first, so the collector stays out of it.
func (lg *loadgen) run(seg *segment) {
	runtime.GC()
	seg.start = time.Now()
	end := seg.start.Add(seg.dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seg.reqs) {
					return
				}
				r := seg.reqs[i]
				if wait := time.Until(seg.start.Add(r.due)); wait > 0 {
					time.Sleep(wait)
				}
				if seg.capped && time.Now().After(end) {
					return
				}
				lg.send(r)
			}
		}()
	}
	wg.Wait()
	if seg.capped {
		seg.reqs = slices.DeleteFunc(seg.reqs, func(r *reqRec) bool { return r.sent.IsZero() })
	}
}

func (lg *loadgen) send(r *reqRec) {
	r.sent = time.Now()
	req, err := http.NewRequest(http.MethodPost, lg.url, bytes.NewReader(r.frame))
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	req.Header.Set("Content-Type", binaryContentType)
	if r.header != "" {
		req.Header.Set("Traceparent", r.header)
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	r.resp, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
}

// checkSegments decodes every answered request's response, compares it
// with the reference Batcher's answers — answers depend only on (points,
// k), so every snapshot generation must agree — and counts the requests
// as attempted, failed and wrong. It returns the mean decode time.
func (out *outcome) checkSegments(ref *sepdc.Batcher, segs ...*segment) (decodeUS float64) {
	var decodeNs, decoded, wrong int64
	for _, seg := range segs {
		for _, r := range seg.reqs {
			if r.err == nil && r.status == http.StatusOK {
				start := time.Now()
				resp, err := serveproto.DecodeResponse(r.resp)
				decodeNs += time.Since(start).Nanoseconds()
				decoded++
				r.wrong = err != nil || resp.Closed || len(resp.Rows) != len(r.queries) || !sameAnswers(ref, r.queries, resp.Rows)
				r.resp = nil
			}
			out.attempted++
			if !r.ok() {
				out.failed++
			}
			if r.wrong {
				wrong++
			}
		}
	}
	if wrong > 0 {
		out.wrong += wrong
		out.note("%d wrong answers", wrong)
	}
	if decoded > 0 {
		decodeUS = float64(decodeNs) / float64(decoded) / 1e3
	}
	return decodeUS
}

func sameAnswers(ref *sepdc.Batcher, queries [][]float64, rows [][]uint32) bool {
	if err := ref.Run(queries); err != nil {
		return false
	}
	for i, row := range rows {
		want := ref.Result(i)
		if len(row) != len(want) {
			return false
		}
		for j, id := range row {
			if int(id) != want[j] {
				return false
			}
		}
	}
	return true
}

// segStats summarizes a checked segment.
type segStats struct {
	failed     int
	goodput    float64 // queries answered correctly within the latency limit, per second from segment start to the last response
	throughput float64 // queries answered correctly, whatever their latency, per second over the same span
	lat        samples // ms from due time; a miss counts as the miss value
	late       samples // ms from due time to send
	backlog    bool
}

// missMs is the latency a failed, refused or wrong request is
// counted at: longer than any latency limit the benchmark applies.
const missMs = 60_000.0

func (seg *segment) stats() segStats {
	var st segStats
	answered, inLimit := 0, 0
	end := seg.start
	for _, r := range seg.reqs {
		if r.done.After(end) {
			end = r.done
		}
		due := seg.start.Add(r.due)
		st.late = append(st.late, ms(r.sent.Sub(due)))
		if !r.ok() {
			st.failed++
			st.lat = append(st.lat, missMs)
			continue
		}
		l := ms(r.done.Sub(due))
		st.lat = append(st.lat, l)
		answered += len(r.queries)
		if l <= latencyLimitMs {
			inLimit += len(r.queries)
		}
	}
	if end.After(seg.start) {
		span := end.Sub(seg.start).Seconds()
		st.goodput = float64(inLimit) / span
		st.throughput = float64(answered) / span
	}
	// A growing backlog shows as lateness rising across the segment:
	// compare the median lateness of its last quarter with its first.
	q := len(st.late) / 4
	if q > 0 {
		first, last := st.late[:q].median(), st.late[len(st.late)-q:].median()
		st.backlog = last-first > 1
	}
	return st
}

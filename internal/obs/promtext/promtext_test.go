package promtext

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestWriterRoundTrip: everything the Writer emits must pass Lint, and
// the parsed exposition must contain the written values.
func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Counter("rpc_requests_total", "Requests served.", []Label{{"job", "knn"}}, 12345)
	w.Gauge("pool_inflight", "Tasks in flight.",
		GaugeSample{Labels: []Label{{"pool", "shared"}}, Value: 3},
		GaugeSample{Labels: []Label{{"pool", "aux"}}, Value: 0},
	)
	w.Histogram("query_latency_ns", "Per-query latency.", []Label{{"engine", "batch"}},
		[]BucketPoint{{Le: 255, CumCount: 10}, {Le: 1023, CumCount: 40}, {Le: math.Inf(1), CumCount: 45}}, 33000, 45)
	w.Summary("window_latency_ns", "Rolling window.", nil,
		[]Quantile{{0.5, 400}, {0.99, 2100}}, 123456, 512)
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	exp, err := Lint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("lint rejected writer output: %v\n%s", err, buf.String())
	}
	if exp.Types["rpc_requests_total"] != "counter" {
		t.Errorf("types = %v", exp.Types)
	}
	if got := exp.Find("rpc_requests_total"); len(got) != 1 || got[0].Value != 12345 {
		t.Errorf("counter samples = %+v", got)
	}
	if got := exp.Find("pool_inflight"); len(got) != 2 {
		t.Errorf("gauge samples = %+v", got)
	}
	buckets := exp.Find("query_latency_ns_bucket")
	if len(buckets) != 3 {
		t.Fatalf("bucket samples = %+v", buckets)
	}
	if got := exp.Find("window_latency_ns"); len(got) != 2 || got[1].Value != 2100 {
		t.Errorf("summary quantiles = %+v", got)
	}
}

// TestWriterAppendsInfBucket: a finite-only bucket list gets the
// mandatory +Inf bucket synthesized from count.
func TestWriterAppendsInfBucket(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Histogram("h", "", nil, []BucketPoint{{Le: 7, CumCount: 2}, {Le: 63, CumCount: 5}}, 100, 9)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `h_bucket{le="+Inf"} 9`) {
		t.Fatalf("no synthesized +Inf bucket:\n%s", buf.String())
	}
	if _, err := Lint(&buf); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestWriterRejections(t *testing.T) {
	cases := []struct {
		name string
		emit func(w *Writer)
	}{
		{"counter without _total", func(w *Writer) { w.Counter("x", "", nil, 1) }},
		{"bad metric name", func(w *Writer) { w.Gauge("9lives", "") }},
		{"bad label name", func(w *Writer) {
			w.Gauge("g", "", GaugeSample{Labels: []Label{{"bad-name", "v"}}, Value: 1})
		}},
		{"duplicate family", func(w *Writer) { w.Gauge("g", ""); w.Gauge("g", "") }},
		{"descending buckets", func(w *Writer) {
			w.Histogram("h", "", nil, []BucketPoint{{Le: 63, CumCount: 5}, {Le: 7, CumCount: 2}}, 0, 5)
		}},
		{"decreasing cumulative", func(w *Writer) {
			w.Histogram("h", "", nil, []BucketPoint{{Le: 7, CumCount: 5}, {Le: 63, CumCount: 2}}, 0, 5)
		}},
		{"inf bucket != count", func(w *Writer) {
			w.Histogram("h", "", nil, []BucketPoint{{Le: math.Inf(1), CumCount: 4}}, 0, 5)
		}},
		{"quantile out of range", func(w *Writer) {
			w.Summary("s", "", nil, []Quantile{{1.5, 9}}, 0, 1)
		}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		c.emit(w)
		if w.Err() == nil {
			t.Errorf("%s: writer accepted invalid input:\n%s", c.name, buf.String())
		}
	}
}

// failWriter fails after n bytes, for error-propagation coverage.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterPropagatesWriteError(t *testing.T) {
	w := NewWriter(&failWriter{n: 10})
	w.Gauge("g", "help", GaugeSample{Value: 1})
	w.Counter("c_total", "", nil, 2)
	if w.Err() == nil {
		t.Fatal("write error swallowed")
	}
}

func TestLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Gauge("g", "", GaugeSample{
		Labels: []Label{{"gen", `quo"te\slash` + "\nnewline"}},
		Value:  1,
	})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	exp, err := Lint(&buf)
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, buf.String())
	}
	got := exp.Find("g")
	if len(got) != 1 || got[0].Labels[0].Value != `quo"te\slash`+"\nnewline" {
		t.Fatalf("escaped label did not round-trip: %+v", got)
	}
}

func TestLintCatchesMalformed(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"sample before TYPE", "foo 1\n"},
		{"histogram without inf", "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n"},
		{"negative counter", "# TYPE c_total counter\nc_total -4\n"},
		{"non-contiguous family", "# TYPE a gauge\n# TYPE b gauge\na 1\nb 2\na 3\n"},
		{"garbage value", "# TYPE g gauge\ng banana\n"},
		{"cumulative decrease", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
	}
	for _, c := range cases {
		if _, err := Lint(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: lint accepted malformed exposition", c.name)
		}
	}
}

func TestLintAcceptsTimestampsAndComments(t *testing.T) {
	doc := "# scraped by test\n# TYPE g gauge\ng{x=\"1\"} 4 1712000000\n\n# TYPE u untyped\nu 9\n"
	exp, err := Lint(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(exp.Series) != 2 {
		t.Fatalf("series = %+v", exp.Series)
	}
}

// TestLintStrictLabelValues: unescaped quotes and raw newlines inside
// label values must be rejected, not silently re-tokenized into extra
// labels or torn sample lines.
func TestLintStrictLabelValues(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		wantErr string
	}{
		{
			"unescaped quote tears value",
			"# TYPE g gauge\ng{a=\"b\"c} 1\n",
			"unescaped quote",
		},
		{
			"unescaped quote re-opens set",
			"# TYPE g gauge\ng{a=\"b\"c\"} 1\n",
			"unterminated label set",
		},
		{
			"garbage between pairs",
			"# TYPE g gauge\ng{a=\"b\" x=\"y\"} 1\n",
			"unescaped quote or garbage",
		},
		{
			"raw newline in value",
			"",
			"unescaped newline",
		},
		{
			"unterminated escape",
			"",
			"unterminated escape",
		},
		{
			"bad escape",
			"# TYPE g gauge\ng{a=\"b\\t\"} 1\n",
			"bad escape",
		},
	}
	for _, c := range cases {
		var err error
		switch c.name {
		case "raw newline in value":
			// A raw newline cannot ride through the line scanner, so hit
			// parseLabels directly — the layer a future non-line-based
			// reader would use.
			_, err = parseLabels("a=\"b\nc\"")
		case "unterminated escape":
			_, err = parseLabels(`a="b\`)
		default:
			_, err = Lint(strings.NewReader(c.doc))
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
	// Properly escaped values still parse.
	if _, err := Lint(strings.NewReader("# TYPE g gauge\ng{a=\"q\\\"uote\",b=\"line\\nbreak\"} 1\n")); err != nil {
		t.Fatalf("escaped values rejected: %v", err)
	}
}

// TestCounterMonotonic: counters, histogram buckets and counts, and
// summary counts must not decrease between two scrapes of the same
// target; appearing/disappearing series, sums, quantiles and gauges
// moving down are fine.
func TestCounterMonotonic(t *testing.T) {
	mustLint := func(doc string) *Exposition {
		exp, err := Lint(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("lint: %v\n%s", err, doc)
		}
		return exp
	}
	cases := []struct {
		name      string
		prev, cur string
		wantErr   string
	}{
		{
			"counters advance",
			"# TYPE c_total counter\nc_total{q=\"a\"} 5\nc_total{q=\"b\"} 2\n",
			"# TYPE c_total counter\nc_total{q=\"a\"} 9\nc_total{q=\"b\"} 2\n",
			"",
		},
		{
			"counter decreases",
			"# TYPE c_total counter\nc_total{q=\"a\"} 5\n",
			"# TYPE c_total counter\nc_total{q=\"a\"} 3\n",
			"decreased between scrapes",
		},
		{
			"histogram count decreases",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 7\nh_sum 1\nh_count 7\n",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 4\n",
			"decreased between scrapes",
		},
		{
			"histogram buckets advance, sum may shrink",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 7\nh_sum 5\nh_count 7\n",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 9\nh_sum 4\nh_count 9\n",
			"",
		},
		{
			"summary quantile may drop, count may not",
			"# TYPE s summary\ns{quantile=\"0.5\"} 9\ns_sum 9\ns_count 3\n",
			"# TYPE s summary\ns{quantile=\"0.5\"} 2\ns_sum 9\ns_count 2\n",
			"decreased between scrapes",
		},
		{
			"gauge may decrease",
			"# TYPE g gauge\ng 10\n",
			"# TYPE g gauge\ng 1\n",
			"",
		},
		{
			"series churn tolerated",
			"# TYPE c_total counter\nc_total{q=\"old\"} 5\n",
			"# TYPE c_total counter\nc_total{q=\"new\"} 1\n",
			"",
		},
		{
			"same name different labels independent",
			"# TYPE c_total counter\nc_total{q=\"a\"} 5\nc_total{q=\"b\"} 9\n",
			"# TYPE c_total counter\nc_total{q=\"a\"} 6\nc_total{q=\"b\"} 9\n",
			"",
		},
	}
	for _, c := range cases {
		err := mustLint(c.cur).CounterMonotonic(mustLint(c.prev))
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.wantErr)
		}
	}
}

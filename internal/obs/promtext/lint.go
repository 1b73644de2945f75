package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one parsed sample line. Exemplar is non-nil when the line
// carried an OpenMetrics exemplar suffix.
type Series struct {
	Name     string
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// Exposition is a parsed scrape: declared families and all samples.
type Exposition struct {
	// Types maps family name → declared TYPE (counter, gauge, histogram,
	// summary, untyped).
	Types map[string]string
	// Help maps family name → HELP text.
	Help map[string]string
	// Series lists every sample line in document order.
	Series []Series
}

// Find returns all samples with the given metric name (for histograms
// and summaries, pass the full series name, e.g. foo_bucket).
func (e *Exposition) Find(name string) []Series {
	var out []Series
	for _, s := range e.Series {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Lint parses a text exposition and verifies it is well-formed:
// families declared before their samples, samples grouped by family,
// histograms with ascending cumulative buckets ending in +Inf and a
// consistent _count, counters non-negative. It returns the parsed
// exposition so callers can make additional assertions (e.g. gauge
// bounds).
func Lint(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}, Help: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	lastFamily := ""
	closed := map[string]bool{} // families whose sample block has ended
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := exp.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(exp.Types, s.Name)
		if _, declared := exp.Types[fam]; !declared {
			return nil, fmt.Errorf("line %d: sample %q before any # TYPE for %q", lineNo, s.Name, fam)
		}
		if fam != lastFamily {
			if closed[fam] {
				return nil, fmt.Errorf("line %d: family %q samples not contiguous", lineNo, fam)
			}
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			lastFamily = fam
		}
		exp.Series = append(exp.Series, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := exp.check(); err != nil {
		return nil, err
	}
	return exp, nil
}

func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %q", typ, name)
		}
		if _, dup := e.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		e.Types[name] = typ
	case "HELP":
		if len(fields) >= 3 {
			name := fields[2]
			if len(fields) == 4 {
				e.Help[name] = fields[3]
			} else {
				e.Help[name] = ""
			}
		}
	}
	return nil
}

// familyOf maps a series name to its declared family, peeling histogram
// and summary suffixes when the base family is declared.
func familyOf(types map[string]string, series string) string {
	if _, ok := types[series]; ok {
		return series
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(series, suf); ok {
			if t, declared := types[base]; declared && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return series
}

func parseSample(line string) (Series, error) {
	var s Series
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 && brace < strings.IndexByte(rest+" ", ' ') {
		nameEnd = brace
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return s, fmt.Errorf("no value on sample line %q", line)
		}
		nameEnd = sp
	}
	s.Name = rest[:nameEnd]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		end := findLabelsEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// An OpenMetrics exemplar may follow the value (and optional
	// timestamp): " # {labels} value [ts]". The label set was already
	// consumed above, so a '#' here can only start an exemplar — label
	// values containing '#' never reach this scan.
	if hash := strings.IndexByte(rest, '#'); hash >= 0 {
		ex, err := parseExemplar(strings.TrimSpace(rest[hash+1:]))
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Exemplar = ex
		rest = strings.TrimSpace(rest[:hash])
	}
	// A timestamp may follow the value; we accept and ignore it.
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

// parseExemplar parses the exemplar suffix body (everything after the
// "#"): a mandatory label set (possibly empty: "{}"), the exemplar
// value, and an optional timestamp.
func parseExemplar(body string) (*Exemplar, error) {
	if !strings.HasPrefix(body, "{") {
		return nil, fmt.Errorf("exemplar missing label set")
	}
	end := findLabelsEnd(body)
	if end < 0 {
		return nil, fmt.Errorf("unterminated exemplar label set")
	}
	labels, err := parseLabels(body[1:end])
	if err != nil {
		return nil, fmt.Errorf("exemplar %w", err)
	}
	if n := exemplarRunes(labels); n > 128 {
		return nil, fmt.Errorf("exemplar label set is %d runes (limit 128)", n)
	}
	fields := strings.Fields(body[end+1:])
	if len(fields) == 0 {
		return nil, fmt.Errorf("exemplar missing value")
	}
	if len(fields) > 2 {
		return nil, fmt.Errorf("trailing garbage after exemplar timestamp")
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q", fields[0])
	}
	ex := &Exemplar{Labels: labels, Value: v}
	if len(fields) == 2 {
		ts, err := parseValue(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad exemplar timestamp %q", fields[1])
		}
		ex.Ts = ts
	}
	return ex, nil
}

// findLabelsEnd locates the closing brace of a label set, honoring
// escaped quotes inside label values.
func findLabelsEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

func parseLabels(body string) ([]Label, error) {
	var out []Label
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair")
		}
		name := strings.TrimSpace(body[i : i+eq])
		if !validLabelName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", name)
		}
		i++
		var val strings.Builder
		for i < len(body) && body[i] != '"' {
			switch body[i] {
			case '\\':
				if i+1 >= len(body) {
					return nil, fmt.Errorf("unterminated escape in label %q", name)
				}
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(body[i])
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %q", body[i], name)
				}
			case '\n':
				// A raw newline can only appear here when a writer emitted
				// it unescaped — scrapers would see a torn sample line.
				return nil, fmt.Errorf("unescaped newline in value of label %q", name)
			default:
				val.WriteByte(body[i])
			}
			i++
		}
		if i >= len(body) {
			return nil, fmt.Errorf("unterminated value for label %q", name)
		}
		i++ // closing quote
		// Strict continuation: anything but a separating comma or the end
		// of the label set means an unescaped quote tore the value (e.g.
		// a="b"c") or the pairs are malformed.
		if i < len(body) {
			if body[i] != ',' {
				return nil, fmt.Errorf("unescaped quote or garbage after value of label %q", name)
			}
			i++
		}
		out = append(out, Label{name, val.String()})
	}
	return out, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// CounterMonotonic verifies that no counter series decreased from a
// previous scrape of the same target: every counter series, histogram
// _bucket and _count series, and summary _count series present in BOTH
// expositions must satisfy curr >= prev. Series that appear or
// disappear are fine (registration churn); decreases mean a counter was
// reset or two sources fought over one name — either way the rate() a
// dashboard computes over it is garbage.
func (e *Exposition) CounterMonotonic(prev *Exposition) error {
	prevVals := map[string]float64{}
	for _, s := range prev.Series {
		if cumulative(prev.Types, s.Name) {
			prevVals[s.Name+formatLabels(s.Labels)] = s.Value
		}
	}
	for _, s := range e.Series {
		if !cumulative(e.Types, s.Name) {
			continue
		}
		key := s.Name + formatLabels(s.Labels)
		if pv, ok := prevVals[key]; ok && s.Value < pv {
			return fmt.Errorf("counter %s decreased between scrapes: %v -> %v", key, pv, s.Value)
		}
	}
	return nil
}

// cumulative reports whether a series only ever grows: a counter, a
// histogram's _bucket or _count, or a summary's _count. (Sums may shrink
// under negative observations; quantiles and gauges move freely.)
func cumulative(types map[string]string, series string) bool {
	switch types[familyOf(types, series)] {
	case "counter":
		return true
	case "histogram":
		return strings.HasSuffix(series, "_bucket") || strings.HasSuffix(series, "_count")
	case "summary":
		return strings.HasSuffix(series, "_count")
	}
	return false
}

// check runs the per-family semantic validations.
func (e *Exposition) check() error {
	// OpenMetrics restricts exemplars to counter samples and histogram
	// bucket series; anywhere else they are a writer bug.
	for _, s := range e.Series {
		if s.Exemplar == nil {
			continue
		}
		fam := familyOf(e.Types, s.Name)
		switch e.Types[fam] {
		case "counter":
		case "histogram":
			if !strings.HasSuffix(s.Name, "_bucket") {
				return fmt.Errorf("exemplar on non-bucket histogram series %q", s.Name)
			}
		default:
			return fmt.Errorf("exemplar on %s series %q (only counters and histogram buckets may carry exemplars)", e.Types[fam], s.Name)
		}
	}
	for name, typ := range e.Types {
		switch typ {
		case "counter":
			for _, s := range e.Find(name) {
				if s.Value < 0 {
					return fmt.Errorf("counter %q has negative value %v", name, s.Value)
				}
			}
		case "histogram":
			if err := e.checkHistogram(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkHistogram validates bucket monotonicity and count consistency
// per label set (ignoring the le label).
func (e *Exposition) checkHistogram(name string) error {
	type group struct {
		les  []float64
		cums []float64
	}
	groups := map[string]*group{}
	for _, s := range e.Find(name + "_bucket") {
		var le float64
		found := false
		var rest []Label
		for _, l := range s.Labels {
			if l.Name == "le" {
				v, err := parseValue(l.Value)
				if err != nil {
					return fmt.Errorf("histogram %q: bad le %q", name, l.Value)
				}
				le, found = v, true
			} else {
				rest = append(rest, l)
			}
		}
		if !found {
			return fmt.Errorf("histogram %q: bucket without le label", name)
		}
		key := formatLabels(rest)
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		g.les = append(g.les, le)
		g.cums = append(g.cums, s.Value)
	}
	counts := map[string]float64{}
	for _, s := range e.Find(name + "_count") {
		counts[formatLabels(s.Labels)] = s.Value
	}
	for key, g := range groups {
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("histogram %q%s: le not ascending", name, key)
			}
			if g.cums[i] < g.cums[i-1] {
				return fmt.Errorf("histogram %q%s: cumulative count decreases", name, key)
			}
		}
		last := len(g.les) - 1
		if last < 0 || !math.IsInf(g.les[last], 1) {
			return fmt.Errorf("histogram %q%s: missing +Inf bucket", name, key)
		}
		if c, ok := counts[key]; ok && c != g.cums[last] {
			return fmt.Errorf("histogram %q%s: +Inf bucket %v != count %v", name, key, g.cums[last], c)
		}
	}
	return nil
}

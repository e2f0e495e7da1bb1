package obs

// ValidateExposition machine-checks a Prometheus text exposition — the
// consumer-side proof used by the renderer's golden tests and the
// `make metrics-smoke` gate that scrapes a live pacevm-serve. It is a
// strict structural parser, not a full client: it verifies name and
// label syntax, HELP/TYPE placement, sample-value floats, and the
// histogram contract (cumulative buckets ending in a `+Inf` bucket
// that equals `_count`).

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// validTypes are the exposition TYPE values.
var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parseLabels consumes a `{k="v",...}` block, returning the label map
// and the rest of the line.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	s = s[1:] // consume '{'
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label block: missing '='")
		}
		name := strings.TrimSpace(s[:eq])
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("bad label name %q", name)
		}
		s = strings.TrimLeft(s[eq+1:], " ")
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: unquoted value", name)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, s[1])
				}
				s = s[2:]
				continue
			}
			val.WriteByte(c)
			s = s[1:]
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val.String()
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("label block: expected ',' or '}'")
	}
}

// histKey identifies one histogram series (family + non-le labels) for
// the cumulativity check.
func histKey(family string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(family)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, labels[k])
	}
	return b.String()
}

type histState struct {
	last    float64 // last bucket cumulative count
	lastLE  float64
	buckets int
	inf     float64
	hasInf  bool
	count   float64
	hasCnt  bool
}

// ValidateExposition parses a text exposition and returns the TYPE of
// every family declared or sampled (untyped families map to
// "untyped"). Any structural violation returns a line-numbered error.
func ValidateExposition(r io.Reader) (map[string]string, error) {
	families := map[string]string{}
	hists := map[string]*histState{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	ln := 0
	fail := func(format string, args ...any) (map[string]string, error) {
		return nil, fmt.Errorf("exposition line %d: %s", ln, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		ln++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // free-form comment
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) < 4 {
					return fail("TYPE needs a name and a type")
				}
				name, typ := fields[2], strings.TrimSpace(fields[3])
				if !validMetricName(name) {
					return fail("TYPE for bad metric name %q", name)
				}
				if !validTypes[typ] {
					return fail("unknown TYPE %q for %s", typ, name)
				}
				if prev, ok := families[name]; ok && prev != "untyped" {
					return fail("second TYPE for %s", name)
				}
				families[name] = typ
			case "HELP":
				if len(fields) < 3 || !validMetricName(fields[2]) {
					return fail("HELP for bad metric name")
				}
			}
			continue
		}
		// Sample line: name[{labels}] value [timestamp]
		rest := line
		end := strings.IndexAny(rest, "{ ")
		if end < 0 {
			return fail("sample without value: %q", line)
		}
		name := rest[:end]
		if !validMetricName(name) {
			return fail("bad metric name %q", name)
		}
		rest = rest[end:]
		labels := map[string]string{}
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parseLabels(rest)
			if err != nil {
				return fail("%v", err)
			}
		}
		valueFields := strings.Fields(rest)
		if len(valueFields) < 1 || len(valueFields) > 2 {
			return fail("sample %s: want value [timestamp], got %q", name, rest)
		}
		value, err := strconv.ParseFloat(valueFields[0], 64)
		if err != nil {
			return fail("sample %s: bad value %q", name, valueFields[0])
		}
		if len(valueFields) == 2 {
			if _, err := strconv.ParseInt(valueFields[1], 10, 64); err != nil {
				return fail("sample %s: bad timestamp %q", name, valueFields[1])
			}
		}
		// Family bookkeeping: a histogram/summary sample belongs to its
		// base family.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && (families[base] == "histogram" || families[base] == "summary") {
				family = base
				break
			}
		}
		if _, ok := families[family]; !ok {
			families[family] = "untyped"
		}
		// Histogram contract.
		if families[family] == "histogram" {
			key := histKey(family, labels)
			st := hists[key]
			if st == nil {
				st = &histState{lastLE: -1e308}
				hists[key] = st
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				leStr, ok := labels["le"]
				if !ok {
					return fail("histogram bucket %s without le label", name)
				}
				le, err := strconv.ParseFloat(leStr, 64)
				if err != nil && leStr != "+Inf" {
					return fail("histogram %s: bad le %q", family, leStr)
				}
				if leStr == "+Inf" {
					st.inf, st.hasInf = value, true
				} else {
					if le <= st.lastLE {
						return fail("histogram %s: le %q not increasing", family, leStr)
					}
					st.lastLE = le
				}
				if value < st.last {
					return fail("histogram %s: bucket counts not cumulative at le=%q", family, leStr)
				}
				st.last = value
				st.buckets++
			case strings.HasSuffix(name, "_count"):
				st.count, st.hasCnt = value, true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key, st := range hists {
		if st.buckets == 0 {
			continue
		}
		if !st.hasInf {
			return nil, fmt.Errorf("exposition: histogram series %s has no +Inf bucket", key)
		}
		if st.hasCnt && st.inf != st.count {
			return nil, fmt.Errorf("exposition: histogram series %s: +Inf bucket %v != count %v", key, st.inf, st.count)
		}
	}
	return families, nil
}

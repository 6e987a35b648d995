package monitor_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// checkExposition validates a Prometheus text-format document line by
// line and returns every problem found (nil when valid):
//
//   - at most one # TYPE per name, before any of that name's samples,
//     and at most one # HELP;
//   - each family's samples are contiguous (a histogram's _bucket, _sum
//     and _count belong to its family);
//   - metric names, label keys and label-value
//     escapes are well formed, and values parse;
//   - within every histogram series, le bounds ascend, bucket counts are
//     cumulative, and the +Inf bucket equals _count;
//   - exemplars appear only on histogram _bucket lines.
func checkExposition(body string) []string {
	var errs []string
	fail := func(n int, format string, args ...any) {
		errs = append(errs, fmt.Sprintf("line %d: ", n)+fmt.Sprintf(format, args...))
	}
	if body != "" && !strings.HasSuffix(body, "\n") {
		errs = append(errs, "document does not end in a line feed")
	}
	types := map[string]string{} // name → TYPE
	helps := map[string]bool{}   // names with a HELP line
	seen := map[string]bool{}    // families that have had samples
	closed := map[string]bool{}  // families whose sample run has ended
	current := ""
	type series struct {
		le, lastCum, inf float64
		hasInf           bool
	}
	hist := map[string]*series{} // histogram series → bucket state
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		n := i + 1
		if line == "" {
			fail(n, "empty line")
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.SplitN(line, " ", 4)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				fail(n, "malformed comment %q", line)
				continue
			}
			if f[1] == "HELP" {
				if helps[f[2]] {
					fail(n, "second HELP for %s", f[2])
				}
				helps[f[2]] = true
				continue
			}
			name := f[2]
			if len(f) != 4 || !validMetricName(name) {
				fail(n, "malformed TYPE line %q", line)
				continue
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail(n, "unknown type %q", f[3])
			}
			if _, dup := types[name]; dup {
				fail(n, "second TYPE for %s", name)
			}
			if seen[name] {
				fail(n, "TYPE for %s after its samples", name)
			}
			types[name] = f[3]
			continue
		}

		name, labels, value, exemplar, err := parseSample(line)
		if err != nil {
			fail(n, "%v: %q", err, line)
			continue
		}
		family, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, s); base != name && types[base] == "histogram" {
				family, suffix = base, s
			}
		}
		if !validMetricName(family) {
			fail(n, "bad metric name %q", name)
		}
		if family != current {
			if closed[family] {
				fail(n, "samples of %s are not contiguous", family)
			}
			if current != "" {
				closed[current] = true
			}
			current = family
		}
		seen[family] = true
		if exemplar && suffix != "_bucket" {
			fail(n, "exemplar on a non-bucket line")
		}
		if suffix == "" {
			continue
		}
		var le string
		var key []string
		for _, l := range labels {
			if l[0] == "le" {
				le = l[1]
				continue
			}
			key = append(key, l[0]+"="+l[1])
		}
		id := family + "{" + strings.Join(key, ",") + "}"
		st := hist[id]
		if st == nil {
			st = &series{le: math.Inf(-1)}
			hist[id] = st
		}
		switch suffix {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				fail(n, "bucket le %q does not parse", le)
				continue
			}
			if bound <= st.le {
				fail(n, "le %q does not ascend", le)
			}
			if value < st.lastCum {
				fail(n, "bucket count %v below the previous bucket's %v", value, st.lastCum)
			}
			st.le, st.lastCum = bound, value
			if math.IsInf(bound, 1) {
				st.inf, st.hasInf = value, true
			}
		case "_count":
			if !st.hasInf {
				fail(n, "%s has no +Inf bucket", id)
			} else if st.inf != value {
				fail(n, "%s: +Inf bucket %v, _count %v", id, st.inf, value)
			}
			delete(hist, id) // a later series with the same labels starts afresh
		}
	}
	return errs
}

// parseSample splits a sample line into its name, label pairs, value
// and whether it carries an exemplar.
func parseSample(line string) (name string, labels [][2]string, value float64, exemplar bool, err error) {
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return "", nil, 0, false, fmt.Errorf("no value")
	}
	name, rest := line[:end], line[end:]
	if strings.HasPrefix(rest, "{") {
		labels, rest, err = parseLabels(rest)
		if err != nil {
			return "", nil, 0, false, err
		}
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, 0, false, fmt.Errorf("no space before the value")
	}
	rest = rest[1:]
	v := rest
	if i := strings.Index(rest, " # "); i >= 0 {
		v, exemplar = rest[:i], true
		ex := rest[i+3:]
		exLabels, exRest, err := parseLabels(ex)
		if err != nil {
			return "", nil, 0, false, fmt.Errorf("exemplar: %v", err)
		}
		if len(exLabels) == 0 || !strings.HasPrefix(exRest, " ") {
			return "", nil, 0, false, fmt.Errorf("malformed exemplar")
		}
		if _, err := strconv.ParseFloat(exRest[1:], 64); err != nil {
			return "", nil, 0, false, fmt.Errorf("exemplar value %q", exRest[1:])
		}
	}
	value, err = strconv.ParseFloat(v, 64)
	if err != nil {
		return "", nil, 0, false, fmt.Errorf("value %q does not parse", v)
	}
	return name, labels, value, exemplar, nil
}

// parseLabels parses a {k="v",...} block at the start of s, unescaping
// the values, and returns the rest of s.
func parseLabels(s string) ([][2]string, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, fmt.Errorf("no label block")
	}
	s = s[1:]
	var out [][2]string
	for {
		if strings.HasPrefix(s, "}") {
			return out, s[1:], nil
		}
		if len(out) > 0 {
			if !strings.HasPrefix(s, ",") {
				return nil, "", fmt.Errorf("labels not comma-separated")
			}
			s = s[1:]
		}
		eq := strings.Index(s, `="`)
		if eq < 0 || !validLabelKey(s[:eq]) {
			return nil, "", fmt.Errorf("bad label key in %q", s)
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("unterminated label value")
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, "", fmt.Errorf("dangling backslash")
				}
				switch s[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c", s[1])
				}
				s = s[2:]
				continue
			}
			val.WriteByte(c)
			s = s[1:]
		}
		out = append(out, [2]string{key, val.String()})
	}
}

func validMetricName(s string) bool {
	for i, c := range s {
		if !(c == '_' || c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
}

func validLabelKey(s string) bool {
	return validMetricName(s) && !strings.Contains(s, ":")
}

// Fuzz coverage for the Prometheus text-format naming and escaping paths:
// a metric name or label key registers iff it matches the exposition
// grammar, arbitrary label values on legal names must always render to
// output that parses under it, and label-value escaping must be
// reversible so no two values collide.
package obs_test

import (
	"regexp"
	"strings"
	"testing"

	"supernpu/internal/obs"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe matches one exposition sample line: name{labels} value.
	// Label values may contain any byte except raw ", \ and newline, plus
	// the three escape pairs.
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*"` +
		`(,[a-zA-Z_][a-zA-Z0-9_]*="(\\\\|\\"|\\n|[^"\\])*")*\})?` +
		` [^ ]+$`)
)

// unescapeLabelValue reverses EscapeLabelValue.
func unescapeLabelValue(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default: // \\ and \"
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func FuzzPromEscape(f *testing.F) {
	seeds := []struct{ name, value string }{
		{"plain_name", "plain"},
		{"héllo, 世界", "héllo, 世界"},
		{`qu"ote`, `say "hi"`},
		{`back\slash`, `C:\path\n`},
		{"new\nline", "line1\nline2"},
		{"9leading", ""},
		{"", "\x00\x7f\xff"},
		{"mixed:colons", `\\" tricky \n"`},
		{"tab\tname", "tab\tvalue"},
	}
	for _, s := range seeds {
		f.Add(s.name, s.value)
	}
	f.Fuzz(func(t *testing.T, name, value string) {
		if got, want := registers(func(r *obs.Registry) { r.Counter(name, "fuzz counter") }),
			metricNameRe.MatchString(name); got != want {
			t.Fatalf("metric name %q registered = %v, want %v", name, got, want)
		}
		if got, want := registers(func(r *obs.Registry) { r.Counter("fuzz_total", "fuzz counter", obs.L(name, value)) }),
			labelNameRe.MatchString(name); got != want {
			t.Fatalf("label key %q registered = %v, want %v", name, got, want)
		}

		escaped := obs.EscapeLabelValue(value)
		if strings.ContainsAny(escaped, "\n") {
			t.Fatalf("EscapeLabelValue(%q) = %q still contains a raw newline", value, escaped)
		}
		if got := unescapeLabelValue(escaped); got != value {
			t.Fatalf("escape round-trip lost data: %q -> %q -> %q", value, escaped, got)
		}

		// Render a full registry on fixed legal names through the same
		// paths /metrics uses and check every line against the exposition
		// grammar.
		r := obs.NewRegistry()
		r.Counter("fuzz_total", "fuzz counter", obs.L("key", value)).Inc()
		r.Histogram("fuzz_seconds", "fuzz histogram", []float64{1}, obs.L("key", value)).Observe(0.5)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
			if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
				continue
			}
			if !sampleRe.MatchString(line) {
				t.Fatalf("exposition line does not parse: %q\nfull output:\n%s", line, b.String())
			}
		}
	})
}

// registers reports whether register runs on a fresh registry without
// panicking.
func registers(register func(*obs.Registry)) (ok bool) {
	defer func() { ok = recover() == nil }()
	register(obs.NewRegistry())
	return true
}

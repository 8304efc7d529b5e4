package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// EmitFunc writes one sample of the family being collected: suffix is
// appended to the family name ("" for the base series, "_sum", ...),
// labels is the pre-rendered label set (see Labels; "" for none), and
// value is the sample.
type EmitFunc func(suffix, labels string, value float64)

// family is one registered metric family: its metadata plus the
// scrape-time collector that emits its samples.
type family struct {
	name, help, typ string
	collect         func(emit EmitFunc)
}

// Registry is a scrape-time metrics registry with Prometheus text
// exposition: counters, gauges, and QuantileSketch-backed summaries
// register once with a collector callback, and WriteText renders every
// family in registration order. Nothing on a hot path touches the
// registry — collectors run only when a scrape asks.
//
// Collectors that read state guarded by the owner's lock (the
// orchestrator's accumulators, a live engine's telemetry) must take
// that lock themselves; the registry only serializes scrapes against
// registrations.
type Registry struct {
	mu   sync.Mutex
	fams []family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: map[string]bool{}}
}

// Register adds a metric family. typ is a Prometheus metric type
// ("counter", "gauge", "summary", "untyped"). collect is invoked on
// every scrape to emit the family's current samples. Register panics on
// a duplicate or invalid name — registrations are static program
// structure, not runtime input.
func (r *Registry) Register(name, help, typ string, collect func(emit EmitFunc)) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	switch typ {
	case "counter", "gauge", "summary", "untyped":
	default:
		panic(fmt.Sprintf("obs: invalid metric type %q for %s", typ, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.seen[name] = true
	r.fams = append(r.fams, family{name: name, help: help, typ: typ, collect: collect})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the natural shape for totals an owner already accumulates.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.Register(name, help, "counter", func(emit EmitFunc) { emit("", "", fn()) })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.Register(name, help, "gauge", func(emit EmitFunc) { emit("", "", fn()) })
}

// EmitSketchSummary renders a QuantileSketch as a Prometheus summary:
// one sample per requested quantile plus the _sum and _count series.
// Call it from a collector registered with typ "summary"; the sketch
// must be safe to read for the duration of the call (take the owner's
// lock in the collector).
func EmitSketchSummary(emit EmitFunc, sk *metrics.QuantileSketch, quantiles ...float64) {
	if sk == nil {
		emit("_sum", "", 0)
		emit("_count", "", 0)
		return
	}
	for _, q := range quantiles {
		v := sk.Quantile(q)
		if math.IsNaN(v) {
			v = 0
		}
		emit("", Labels("quantile", strconv.FormatFloat(q, 'g', -1, 64)), v)
	}
	emit("_sum", "", sk.Sum())
	emit("_count", "", float64(sk.Count()))
}

// Labels renders key/value pairs as a Prometheus label set, values
// escaped: Labels("phase", "faults") => `{phase="faults"}`.
func Labels(kv ...string) string {
	if len(kv) == 0 || len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders every registered family in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(func(suffix, labels string, value float64) {
			bw.WriteString(f.name)
			bw.WriteString(suffix)
			bw.WriteString(labels)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
			bw.WriteByte('\n')
		})
	}
	return bw.Flush()
}

// Handler serves the registry over HTTP (GET only) in the text
// exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

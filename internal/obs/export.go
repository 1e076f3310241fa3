package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// metricsDoc is the JSON snapshot envelope. The schema version covers
// the envelope shape, not the series set — new instruments may appear
// between PRs without a bump.
type metricsDoc struct {
	SchemaVersion int      `json:"schema_version"`
	Metrics       []Metric `json:"metrics"`
}

// WriteJSON writes the current snapshot as an indented JSON document.
func WriteJSON(w io.Writer) error {
	doc := metricsDoc{SchemaVersion: 1, Metrics: Snapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteProm writes every registered instrument in the Prometheus text
// exposition format, version 0.0.4, stdlib only. The mapping:
//
//	Counter     → one `counter` sample
//	Gauge       → one `gauge` sample
//	CounterVec  → one `counter` family with a <label>="<value>" label
//	              per cell
//	Histogram   → a classic `histogram` family: cumulative
//	              name_bucket{le="..."} series (le is the inclusive
//	              integer upper bound of each power-of-two bucket, the
//	              last bucket exporting as le="+Inf"), plus name_sum
//	              and name_count
//
// Metric names are the registry names with every non-[a-zA-Z0-9_:]
// byte replaced by '_'. Families are emitted sorted by name, each
// preceded by its # TYPE line, so the exposition is deterministic for
// a fixed snapshot.
func WriteProm(w io.Writer) error {
	registry.Lock()
	insts := make([]instrument, len(registry.insts))
	copy(insts, registry.insts)
	registry.Unlock()

	type family struct {
		name string
		body func(buf *bytes.Buffer, name string)
	}
	fams := make([]family, 0, len(insts))
	for _, in := range insts {
		switch v := in.(type) {
		case *Counter:
			fams = append(fams, family{promName(v.name), func(buf *bytes.Buffer, name string) {
				promType(buf, name, "counter")
				promSample(buf, name, "", v.Value())
			}})
		case *Gauge:
			fams = append(fams, family{promName(v.name), func(buf *bytes.Buffer, name string) {
				promType(buf, name, "gauge")
				promSample(buf, name, "", v.Value())
			}})
		case *CounterVec:
			fams = append(fams, family{promName(v.name), func(buf *bytes.Buffer, name string) {
				promType(buf, name, "counter")
				for i := range v.cells {
					promSample(buf, name, `{`+v.label+`="`+v.values[i]+`"}`, v.cells[i].Load())
				}
			}})
		case *Histogram:
			fams = append(fams, family{promName(v.name), func(buf *bytes.Buffer, name string) {
				promType(buf, name, "histogram")
				buckets := v.Buckets()
				var cum int64
				for k, c := range buckets {
					cum += c
					le := "+Inf"
					if k < len(buckets)-1 {
						// Inclusive integer upper bound of bucket k:
						// bucket 0 holds v <= 0, bucket k holds
						// 2^(k-1) <= v < 2^k, i.e. v <= 2^k - 1.
						if k == 0 {
							le = "0"
						} else {
							le = strconv.FormatInt(int64(1)<<k-1, 10)
						}
					}
					promSample(buf, name+"_bucket", `{le="`+le+`"}`, cum)
				}
				promSample(buf, name+"_sum", "", v.Sum())
				promSample(buf, name+"_count", "", v.Count())
			}})
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var buf bytes.Buffer
	for _, f := range fams {
		f.body(&buf, f.name)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func promType(buf *bytes.Buffer, name, typ string) {
	buf.WriteString("# TYPE ")
	buf.WriteString(name)
	buf.WriteByte(' ')
	buf.WriteString(typ)
	buf.WriteByte('\n')
}

func promSample(buf *bytes.Buffer, name, labels string, v int64) {
	buf.WriteString(name)
	buf.WriteString(labels)
	buf.WriteByte(' ')
	buf.WriteString(strconv.FormatInt(v, 10))
	buf.WriteByte('\n')
}

// promName maps a registry name onto the Prometheus metric-name
// alphabet: every byte outside [a-zA-Z0-9_:] becomes '_'.
func promName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				out[i] = '_'
			}
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

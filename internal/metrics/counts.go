package metrics

import (
	"encoding/json"
	"iter"
	"maps"
	"slices"
)

// Counts is a list of labelled counts kept sorted by label, bytewise: the
// form a simulation result's placement counts take, so that copying it
// copies one slice of counts and an encoder walks it in order, with no
// sort and no lookup.
// The label slice is shared by every copy Clone makes and never written
// once built (Add builds a new one to insert a label), so a copy lent to
// a snapshot stays valid while its source keeps counting. The zero Counts
// is nil, and encodes as JSON null; NewCounts is empty, and encodes as {}.
//
// Its JSON is a map's, byte for byte: MarshalJSON writes what
// encoding/json writes for a map[string]int64 of the same pairs, and
// UnmarshalJSON accepts what it accepts for one.
type Counts struct {
	labels []string
	n      []int64
}

// NewCounts returns an empty, non-nil Counts.
func NewCounts() Counts { return Counts{labels: []string{}} }

// Len returns the number of labels.
func (c Counts) Len() int { return len(c.labels) }

// Labels returns the labels in order, nil for a nil Counts. The slice is
// shared: the caller must not write it.
func (c Counts) Labels() []string { return c.labels }

// At returns label i and its count.
func (c Counts) At(i int) (string, int64) { return c.labels[i], c.n[i] }

// Get returns label's count, 0 when it has none.
func (c Counts) Get(label string) int64 {
	if i, ok := slices.BinarySearch(c.labels, label); ok {
		return c.n[i]
	}
	return 0
}

// All yields every label and its count, in label order.
func (c Counts) All() iter.Seq2[string, int64] {
	return func(yield func(string, int64) bool) {
		for i, l := range c.labels {
			if !yield(l, c.n[i]) {
				return
			}
		}
	}
}

// Add adds n to label's count, inserting the label in order when it has
// none. It writes c's counts in place, so c must own them: a Counts that
// Clone returned does, a copy made by assignment shares them with its
// source.
func (c *Counts) Add(label string, n int64) {
	i, ok := slices.BinarySearch(c.labels, label)
	if ok {
		c.n[i] += n
		return
	}
	c.labels = slices.Insert(slices.Clip(c.labels), i, label)
	c.n = slices.Insert(c.n, i, n)
}

// Clone returns a copy of c that owns its counts and shares c's labels.
func (c Counts) Clone() Counts {
	return Counts{labels: c.labels, n: slices.Clone(c.n)}
}

// Plus returns the counts of c and o summed label by label, in one merge
// of the two sorted lists. It writes neither, and the result is non-nil.
func (c Counts) Plus(o Counts) Counts {
	out := Counts{labels: make([]string, 0, len(c.labels)+len(o.labels)), n: make([]int64, 0, len(c.labels)+len(o.labels))}
	i, j := 0, 0
	for i < len(c.labels) || j < len(o.labels) {
		switch {
		case j == len(o.labels) || i < len(c.labels) && c.labels[i] < o.labels[j]:
			out.labels, out.n = append(out.labels, c.labels[i]), append(out.n, c.n[i])
			i++
		case i == len(c.labels) || o.labels[j] < c.labels[i]:
			out.labels, out.n = append(out.labels, o.labels[j]), append(out.n, o.n[j])
			j++
		default:
			out.labels, out.n = append(out.labels, c.labels[i]), append(out.n, c.n[i]+o.n[j])
			i, j = i+1, j+1
		}
	}
	return out
}

// MarshalJSON encodes c as encoding/json encodes the map[string]int64 of
// its pairs, through that very path: a hand-written encoder (the
// simulator's snapshot encoder is one) is held to these bytes.
func (c Counts) MarshalJSON() ([]byte, error) {
	if c.labels == nil {
		return []byte("null"), nil
	}
	m := make(map[string]int64, len(c.labels))
	for i, l := range c.labels {
		m[l] = c.n[i]
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes what encoding/json decodes into a fresh
// map[string]int64 (null to a nil Counts, a repeated label's last count
// winning, a fractional or out-of-range count refused), then sorts it.
func (c *Counts) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*c = Counts{}
	if m != nil {
		c.labels = slices.AppendSeq(make([]string, 0, len(m)), maps.Keys(m))
		slices.Sort(c.labels)
		c.n = make([]int64, len(c.labels))
		for i, l := range c.labels {
			c.n[i] = m[l]
		}
	}
	return nil
}

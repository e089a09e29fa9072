package schema

// smallKeySet is the number of keys a keySet scans linearly before it
// moves them into a map. Generated tables hold at most
// maxSlotsPerRelation (8) rows unless a query's occurrences need more,
// so their checks never build a map.
const smallKeySet = 16

// keySet maps byte-string keys (row or column-projection encodings) to
// row indices. Up to smallKeySet keys live in one byte buffer, reused
// across resets, and are found by scanning, so checking a small table
// allocates nothing per key; larger sets switch to a map.
type keySet struct {
	buf  []byte
	n    int
	ends [smallKeySet]int // key i is buf[ends[i-1]:ends[i]]
	vals [smallKeySet]int
	m    map[string]int
}

// reset empties the set, keeping its buffer.
func (s *keySet) reset() {
	s.buf, s.n, s.m = s.buf[:0], 0, nil
}

// find returns the value stored under key.
func (s *keySet) find(key []byte) (int, bool) {
	if s.m != nil {
		v, ok := s.m[string(key)]
		return v, ok
	}
	start := 0
	for i, end := range s.ends[:s.n] {
		if string(s.buf[start:end]) == string(key) {
			return s.vals[i], true
		}
		start = end
	}
	return 0, false
}

// add stores v under key, which must not be in the set yet.
func (s *keySet) add(key []byte, v int) {
	if s.m == nil && s.n < smallKeySet {
		if s.buf == nil {
			s.buf = make([]byte, 0, 128)
		}
		s.buf = append(s.buf, key...)
		s.ends[s.n], s.vals[s.n] = len(s.buf), v
		s.n++
		return
	}
	if s.m == nil {
		s.m = make(map[string]int, 2*smallKeySet)
		start := 0
		for i, end := range s.ends[:s.n] {
			s.m[string(s.buf[start:end])] = s.vals[i]
			start = end
		}
	}
	s.m[string(key)] = v
}

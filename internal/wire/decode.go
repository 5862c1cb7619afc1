package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"
)

// predictRequest is the /predict body schema and the fallback's decode
// target. Exactly one of X and Batch must be set, a rule the handler
// enforces. The type's name is part of encoding/json's error text ("Go
// struct field predictRequest.version of type int"), so it keeps it.
type predictRequest struct {
	// Model is the registry name. Required.
	Model string `json:"model"`
	// Version selects a stored version; 0 or absent means latest.
	Version int `json:"version,omitempty"`
	// X is a single feature vector.
	X []float64 `json:"x,omitempty"`
	// Batch is a list of feature vectors.
	Batch [][]float64 `json:"batch,omitempty"`
}

// observeRequest is the /observe body schema: each feature vector
// paired with the runtime actually measured for it. Exactly one of
// (X, Y) and (Batch, YBatch) must be set, a rule the handler enforces.
type observeRequest struct {
	// Model is the registry name. Required. Observations are always
	// scored against the latest served version.
	Model string `json:"model"`
	// X, Y is a single observation.
	X []float64 `json:"x,omitempty"`
	Y *float64  `json:"y,omitempty"`
	// Batch, YBatch is a batched observation stream.
	Batch  [][]float64 `json:"batch,omitempty"`
	YBatch []float64   `json:"y_batch,omitempty"`
}

// maxPrealloc bounds how much of a declared Content-Length is allocated
// before any byte arrives; a larger body grows the buffer as it comes.
const maxPrealloc = 1 << 20

// maxPooledBytes bounds the buffers a released decode hands back to its
// pool, so one huge request does not pin its memory for the process's
// lifetime.
const maxPooledBytes = 4 << 20

// block is the working memory of one decode: the body bytes, the
// floats scanned out of them, each batch row's end offset in flat, and
// the batch's row views over flat.
type block struct {
	body []byte
	flat []float64
	ends []int
	rows [][]float64
}

// read reads r into b.body, preallocating from the declared size, and
// reports whether scan accepted it. It stops at EOF, at a read error,
// or as soon as a chunk ends in '}' — the only place a canonical body
// closes — and scan takes it: like a streaming decoder it answers a
// complete value without waiting for what follows. When scan refuses,
// rest yields what the stream holds after b.body: nothing at EOF, the
// unread remainder when a chunk ending in '}' was refused, else the
// error that stopped the read.
func (b *block) read(r io.Reader, size int64, scan func() bool) (ok bool, rest io.Reader) {
	want := 512
	if size > 0 {
		want = int(min(size, maxPrealloc)) + 1
	}
	b.body = slices.Grow(b.body[:0], want)
	for {
		if len(b.body) == cap(b.body) {
			b.body = slices.Grow(b.body, cap(b.body))
		}
		n, err := r.Read(b.body[len(b.body):cap(b.body)])
		b.body = b.body[:len(b.body)+n]
		switch {
		case err == io.EOF:
			return scan(), nil
		case err != nil:
			return false, errReader{err}
		case n > 0 && closes(b.body):
			return scan(), r
		}
	}
}

// closes reports whether body's last byte other than whitespace is '}'.
func closes(body []byte) bool {
	i := len(body)
	for i > 0 && space(body[i-1]) {
		i--
	}
	return i > 0 && body[i-1] == '}'
}

// trim drops buffers too large to keep pooled.
func (b *block) trim() {
	if cap(b.body) > maxPooledBytes {
		b.body = nil
	}
	if 8*cap(b.flat) > maxPooledBytes || 8*cap(b.ends) > maxPooledBytes {
		b.flat, b.ends = nil, nil
	}
	if 24*cap(b.rows) > maxPooledBytes {
		b.rows = nil
	}
}

// fallback decodes the body the way the handlers always have:
// json.Decoder with DisallowUnknownFields over the request stream — the
// bytes already read, then rest (see block.read), so a body cut short
// or still arriving gets the answer a streaming decoder would give.
func fallback(body []byte, rest io.Reader, v any) error {
	var r io.Reader = bytes.NewReader(body)
	if rest != nil {
		r = io.MultiReader(r, rest)
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Predict is one decoded /predict request. X and the rows of Batch may
// view pooled memory: they are valid until Release.
type Predict struct {
	predictRequest
	block
}

var predictPool = sync.Pool{New: func() any { return new(Predict) }}

// DecodePredict reads a /predict body from r, whose declared length is
// size (negative when unknown), and decodes it. Bound r with
// http.MaxBytesReader: a read error such as its *http.MaxBytesError
// is returned as a streaming json.Decoder would return it. Release the
// result when its rows are no longer read.
func DecodePredict(r io.Reader, size int64) (*Predict, error) {
	p := predictPool.Get().(*Predict)
	ok, rest := p.read(r, size, p.scan)
	if ok {
		return p, nil
	}
	var req predictRequest
	if err := fallback(p.body, rest, &req); err != nil {
		p.Release()
		return nil, err
	}
	p.predictRequest = req
	return p, nil
}

// predictSchema and observeSchema list each body's keys and the shape
// of their values, in the order of the values block.scan fills in.
var (
	predictSchema = []key{{"model", kString}, {"version", kInt}, {"x", kFloats}, {"batch", kRows}}
	observeSchema = []key{{"model", kString}, {"x", kFloats}, {"y", kFloat}, {"batch", kRows}, {"y_batch", kFloats}}
)

// scan decodes a canonical body into p, reporting false (with p's
// request fields undefined) for any body outside the canonical subset.
func (p *Predict) scan() bool {
	var v [4]value
	if !p.block.scan(predictSchema, v[:]) {
		return false
	}
	model, version, x, batch := v[0], v[1], v[2], v[3]
	if string(model.str) != p.Model {
		// A pooled Predict keeps its last name: a replica serving one
		// model decodes its name without allocating.
		p.Model = string(model.str)
	}
	p.Version, p.X, p.Batch = version.n, nil, nil
	if x.set {
		p.X = x.of(p.flat)
	}
	if batch.set {
		p.rows = views(p.rows[:0], p.flat, batch.lo, p.ends[batch.elo:batch.ehi])
		p.Batch = p.rows
	}
	return true
}

// Release returns p's memory to the pool. p, its X and its Batch rows
// must not be used afterwards.
func (p *Predict) Release() {
	p.Version, p.X, p.Batch = 0, nil, nil
	p.trim()
	predictPool.Put(p)
}

// Response encodes the answer to p — ys[0] for an "x" request, ys for a
// "batch" one — into p's pooled memory (see AppendPredictResponse). The
// bytes are valid until Release.
func (p *Predict) Response(model string, version int, ys []float64) ([]byte, error) {
	out, err := AppendPredictResponse(p.body[:0], model, version, ys, p.X != nil)
	if err != nil {
		return nil, err
	}
	p.body = out
	return out, nil
}

// Observe is one decoded /observe request. Like Predict's, its X, Y and
// the rows of Batch and YBatch may view pooled memory: they are valid
// until Release, so whatever keeps them must copy them first.
type Observe struct {
	observeRequest
	block
	one [1]float64 // the single form's runtime as a batch of one
}

var observePool = sync.Pool{New: func() any { return new(Observe) }}

// DecodeObserve reads an /observe body from r, whose declared length is
// size (negative when unknown), and decodes it, as DecodePredict does.
// Release the result when its rows are no longer read.
func DecodeObserve(r io.Reader, size int64) (*Observe, error) {
	o := observePool.Get().(*Observe)
	ok, rest := o.read(r, size, o.scan)
	if ok {
		return o, nil
	}
	var req observeRequest
	if err := fallback(o.body, rest, &req); err != nil {
		o.Release()
		return nil, err
	}
	o.observeRequest = req
	return o, nil
}

// scan decodes a canonical body into o, reporting false (with o's
// request fields undefined) for any body outside the canonical subset.
func (o *Observe) scan() bool {
	var v [5]value
	if !o.block.scan(observeSchema, v[:]) {
		return false
	}
	model, x, y, batch, yBatch := v[0], v[1], v[2], v[3], v[4]
	if string(model.str) != o.Model {
		o.Model = string(model.str)
	}
	o.X, o.Y, o.Batch, o.YBatch = nil, nil, nil, nil
	if x.set {
		o.X = x.of(o.flat)
	}
	if y.set {
		o.Y = &o.flat[y.lo]
	}
	if batch.set {
		o.rows = views(o.rows[:0], o.flat, batch.lo, o.ends[batch.elo:batch.ehi])
		o.Batch = o.rows
	}
	if yBatch.set {
		o.YBatch = yBatch.of(o.flat)
	}
	return true
}

// Rows returns the observations as feature rows and measured runtimes:
// the single form (Y set) as a batch of one, else the batch form as
// decoded, both in o's memory and valid until Release. Check the
// request's shape first: Rows does not.
func (o *Observe) Rows() ([][]float64, []float64) {
	if o.Y == nil {
		return o.Batch, o.YBatch
	}
	o.rows = append(o.rows[:0], o.X)
	o.one[0] = *o.Y
	return o.rows, o.one[:]
}

// Release returns o's memory to the pool. o and its rows must not be
// used afterwards.
func (o *Observe) Release() {
	o.X, o.Y, o.Batch, o.YBatch = nil, nil, nil, nil
	o.trim()
	observePool.Put(o)
}

// kind is the shape of one schema key's value.
type kind uint8

const (
	kString kind = iota // a canonical string
	kInt                // a plain integer literal
	kFloat              // one number, appended to flat
	kFloats             // an array of numbers, appended to flat
	kRows               // an array of number arrays, appended to flat with each row's end in ends
)

type key struct {
	name string
	kind kind
}

// value is where one key's value landed: its string or integer, or its
// numbers at flat[lo:hi] and its row ends at ends[elo:ehi].
type value struct {
	set              bool
	str              []byte
	n                int
	lo, hi, elo, ehi int
}

// of returns the value's numbers as a capacity-capped view of flat.
func (v value) of(flat []float64) []float64 { return flat[v.lo:v.hi:v.hi] }

// scan scans b.body as an object with schema's keys, each at most once
// and no other, filling vals (one per key) and b.flat and b.ends.
func (b *block) scan(schema []key, vals []value) bool {
	s := scanner{b: b.body}
	flat, ends := b.flat[:0], b.ends[:0]
	if flat == nil {
		flat = make([]float64, 0, 64) // so an empty array decodes non-nil
	}
	ok := s.object(func(name []byte) bool {
		i := 0
		for i < len(schema) && schema[i].name != string(name) {
			i++
		}
		if i == len(schema) || vals[i].set {
			return false
		}
		v := &vals[i]
		v.set, v.lo, v.elo = true, len(flat), len(ends)
		ok := false
		switch schema[i].kind {
		case kString:
			v.str, ok = s.str()
		case kInt:
			v.n, ok = s.int()
		case kFloat:
			var f float64
			f, ok = s.float()
			flat = append(flat, f)
		case kFloats:
			flat, ok = s.floats(flat)
		case kRows:
			flat, ends, ok = s.rows(flat, ends)
		}
		v.hi, v.ehi = len(flat), len(ends)
		return ok
	})
	b.flat, b.ends = flat, ends
	return ok
}

// views appends to dst one capacity-capped view of flat per batch row:
// the rows lie back to back from lo, row i ending at ends[i].
func views(dst [][]float64, flat []float64, lo int, ends []int) [][]float64 {
	if dst == nil {
		dst = make([][]float64, 0, len(ends))
	}
	for _, hi := range ends {
		dst = append(dst, flat[lo:hi:hi])
		lo = hi
	}
	return dst
}

// scanner walks the canonical subset of JSON. Every method reports
// false for input outside it, leaving the caller to fall back.
type scanner struct {
	b []byte
	i int
}

// space reports whether c is JSON whitespace.
func space(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && space(s.b[s.i]) {
		s.i++
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans an object, handing each key to field, which scans the
// value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// str scans a string of printable ASCII with no escape and returns its
// contents, which alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			str := s.b[s.i:j]
			s.i = j + 1
			return str, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number scans the literal of a JSON number.
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.i = i
	return b[start:i], true
}

// digits returns the end of the run of decimal digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float scans a number that strconv.ParseFloat parses in range.
func (s *scanner) float() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// int scans an integer literal short enough that no int overflows.
func (s *scanner) int() (int, bool) {
	lit, ok := s.number()
	if !ok || len(lit) > 18 || bytes.ContainsAny(lit, ".eE") {
		return 0, false
	}
	v, err := strconv.Atoi(string(lit))
	return v, err == nil
}

// floats scans an array of numbers, appending them to flat.
func (s *scanner) floats(flat []float64) ([]float64, bool) {
	if !s.eat('[') {
		return flat, false
	}
	if s.eat(']') {
		return flat, true
	}
	for {
		v, ok := s.float()
		if !ok {
			return flat, false
		}
		flat = append(flat, v)
		if !s.eat(',') {
			return flat, s.eat(']')
		}
	}
}

// rows scans an array of number arrays, appending their numbers to flat
// and each row's end offset to ends.
func (s *scanner) rows(flat []float64, ends []int) ([]float64, []int, bool) {
	if !s.eat('[') {
		return flat, ends, false
	}
	if s.eat(']') {
		return flat, ends, true
	}
	for {
		var ok bool
		if flat, ok = s.floats(flat); !ok {
			return flat, ends, false
		}
		ends = append(ends, len(flat))
		if !s.eat(',') {
			return flat, ends, s.eat(']')
		}
	}
}

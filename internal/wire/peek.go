package wire

import (
	"bytes"
	"encoding/json"
)

// PeekModel returns a request body's "model" field as json.Unmarshal
// stores it into a struct{ Model string }: "" for a body it refuses or
// whose model is not a string. The scanner answers a body of the
// canonical subset — an object whose keys are printable ASCII, whose
// "model" values (the key in any case) are strings, every other value a
// string, a number, or an array of them or of arrays of them, and only
// whitespace after it — without encoding/json. Every other body goes to
// json.Unmarshal.
func PeekModel(body []byte) string {
	if model, ok := peek(body); ok {
		return model
	}
	var v struct{ Model string }
	_ = json.Unmarshal(body, &v)
	return v.Model
}

var modelKey = []byte("model")

// peek scans body for PeekModel, reporting false for any body outside
// the canonical subset.
func peek(body []byte) (string, bool) {
	s := scanner{b: body}
	var model []byte
	ok := s.object(func(key []byte) bool {
		// encoding/json matches keys without regard to case and keeps
		// the last of repeated ones, as here.
		if !bytes.EqualFold(key, modelKey) {
			return s.skip(0)
		}
		var ok bool
		model, ok = s.str()
		return ok
	})
	// json.Unmarshal, unlike a json.Decoder, refuses trailing data.
	if s.ws(); !ok || s.i != len(s.b) {
		return "", false
	}
	return string(model), true
}

// skip scans a value PeekModel does not keep: a string, a number, or an
// array of them nested at most two deep.
func (s *scanner) skip(depth int) bool {
	s.ws()
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			_, ok := s.str()
			return ok
		case '[':
			if depth == 2 {
				return false
			}
			s.i++
			if s.eat(']') {
				return true
			}
			for {
				if !s.skip(depth + 1) {
					return false
				}
				if !s.eat(',') {
					return s.eat(']')
				}
			}
		}
	}
	_, ok := s.number()
	return ok
}

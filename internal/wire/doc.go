// Package wire is the JSON codec of the serving hot path: the /predict
// and /observe request schemas internal/serve decodes and the /predict
// response it encodes. It is the only JSON those handlers run per
// request.
//
// Exactness is by construction, not by re-implementing encoding/json.
// A hand-written scanner accepts only the canonical subset clients
// send:
//
//   - exact lowercase schema keys, each at most once;
//   - strings of printable ASCII with no escape;
//   - numbers that match the JSON grammar and that strconv.ParseFloat
//     parses in range (the call encoding/json makes itself);
//   - "version" as a plain integer literal;
//   - no null, true or false;
//   - anything after the closing brace ignored, as json.Decoder does.
//
// Every other body goes to encoding/json with the schema structs below
// and DisallowUnknownFields, so a body gets the verdict, error text and
// float bits encoding/json alone would give it, whichever path decodes
// it. The response encoder makes encoding/json's own formatting choices
// (strconv.AppendFloat, 'e' outside [1e-6, 1e21)), and refuses a
// non-finite value up front instead of failing halfway through a
// written response. The fuzz targets in this package hold all three
// against encoding/json.
//
// The body is read into one buffer before it is scanned, but reading
// stops as soon as a read ends in '}' and the scanner accepts what
// came: a canonical body is answered without waiting for what follows
// it, as a streaming json.Decoder answers it. A body the scanner
// refuses at such a point goes to encoding/json with the rest of the
// stream still unread, and encoding/json reads on only as far as it
// needs. Any other body — one whose reads never end in '}', such as a
// malformed body a streaming decoder would refuse at its first bad
// byte — is read to its end, at most the caller's MaxBytesReader
// limit, before it is decided. Only when its answer goes out changes,
// never what the answer is.
//
// PeekModel is the gateway's routing read: the body's "model" field as
// json.Unmarshal would store it, answered by the same scanner for a
// canonical body and by json.Unmarshal for any other; FuzzModelPeek
// holds the two together.
//
// An integer literal of up to 15 digits, the shape of every stencil
// feature, is converted without strconv: below 2^53 its float64 is
// exact, so the bits are ParseFloat's.
//
// Decoded /predict and /observe rows live in pooled memory and are
// valid until Predict.Release and Observe.Release: whatever keeps a row
// past the request — the online plane's window, a shadow sink — copies
// it first.
package wire

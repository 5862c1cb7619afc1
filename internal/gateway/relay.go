package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"

	"lam/internal/telemetry"
)

// maxPrealloc bounds how much of a declared Content-Length is
// allocated before any byte arrives; a larger body grows the buffer as
// it comes.
const maxPrealloc = 1 << 20

// maxPooledBody bounds the body buffers a finished request hands back
// to the pool, so one huge request does not pin its memory for the
// process's lifetime.
const maxPooledBody = 1 << 20

// copyBufSize is the size of the buffer a response is relayed through.
const copyBufSize = 8 << 10

// outbound is the pooled state of one proxied request: the body read
// from the client, which every attempt resends, the header every
// attempt sends, and the buffer the answer is relayed through.
//
// A Transport may still be writing a request after RoundTrip has
// returned, reading its header and body, so an outbound goes back to
// the pool only when the proxy has released it and every write that
// started has finished. The requests carry trace, whose hooks count
// them: a write starts on a connection the Transport got (GotConn)
// and fires WroteRequest when it is done with the request. A write
// that never happens leaves its hold taken, and the outbound goes to
// the collector instead of the pool. The body each write reads is an
// io.NopCloser over a *bytes.Reader, a type the Transport knows is in
// memory, so it sends header and body in one packet.
type outbound struct {
	body    bytes.Buffer
	header  http.Header
	values  [2]string // the header's Content-Type and trace ID
	copyBuf []byte
	trace   httptrace.ClientTrace
	rewind  func() (io.ReadCloser, error) // the requests' GetBody, bound once
	refs    atomic.Int32
}

// outboundPool is filled in init: an outbound's hooks release it to
// the pool, so the pool cannot be initialized with them.
var outboundPool sync.Pool

func init() {
	outboundPool.New = func() any {
		o := &outbound{header: make(http.Header, 2), copyBuf: make([]byte, copyBufSize)}
		o.trace = httptrace.ClientTrace{
			GotConn:      func(httptrace.GotConnInfo) { o.refs.Add(1) },
			WroteRequest: func(httptrace.WroteRequestInfo) { o.release() },
		}
		o.rewind = func() (io.ReadCloser, error) { return o.newBody(), nil }
		return o
	}
}

// newOutbound returns an empty outbound whose header carries the
// client's Content-Type and the trace ID, each when set. Release it
// when the request is answered.
func newOutbound(contentType, traceID string) *outbound {
	o := outboundPool.Get().(*outbound)
	o.refs.Store(1)
	o.body.Reset()
	clear(o.header)
	o.values = [2]string{contentType, traceID}
	if contentType != "" {
		o.header["Content-Type"] = o.values[0:1:1]
	}
	if traceID != "" {
		o.header[telemetry.TraceHeader] = o.values[1:2:2]
	}
	return o
}

// read buffers the request body from r, whose declared length is size
// (negative when unknown).
func (o *outbound) read(r io.Reader, size int64) error {
	if size > 0 {
		o.body.Grow(int(min(size, maxPrealloc)))
	}
	_, err := o.body.ReadFrom(r)
	return err
}

// newBody returns a fresh body over o's bytes: each request's body,
// and what its GetBody hands a Transport that resends the body on a
// new connection.
func (o *outbound) newBody() io.ReadCloser {
	return io.NopCloser(bytes.NewReader(o.body.Bytes()))
}

// release drops one hold on o, returning it to the pool with the last.
func (o *outbound) release() {
	if o.refs.Add(-1) != 0 {
		return
	}
	if o.body.Cap() > maxPooledBody {
		o.body = bytes.Buffer{}
	}
	outboundPool.Put(o)
}

// relayedHeaders are the backend response headers the API uses; forward
// passes on each one's first value.
var relayedHeaders = [...]string{"Content-Type", "Retry-After", "Location"}

// forward relays a backend response to the client unchanged: status,
// the headers the API uses, the backend's Content-Length, and the body
// bytes verbatim through buf — the bit-identity contract for proxied
// predictions. The body is copied with plain Writes: with a length set,
// w's ReadFrom would hand the body to the connection's generic
// ReadFrom, which allocates a 32 KB buffer of its own.
func forward(w http.ResponseWriter, resp *http.Response, buf []byte) {
	defer resp.Body.Close()
	h := w.Header()
	for _, k := range relayedHeaders {
		if v := resp.Header[k]; len(v) > 0 && v[0] != "" {
			h[k] = v[:1:1]
		}
	}
	if resp.ContentLength > 0 {
		if v := resp.Header["Content-Length"]; len(v) == 1 {
			h["Content-Length"] = v
		} else {
			h.Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
		}
	}
	w.WriteHeader(resp.StatusCode)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

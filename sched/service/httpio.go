package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Request reading and response writing, shared by every handler.

// readBody slurps the JSON body under the body-size cap. Forwarding
// needs the raw bytes, so decoding is split from reading. A body whose
// length the client announced is read into one buffer of that size;
// io.ReadAll would grow its buffer by doubling, copying the body about
// twice over.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *ErrorBody) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var (
		data []byte
		err  error
	)
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		data, err = readSized(r.Body, n)
	} else {
		data, err = io.ReadAll(r.Body)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &ErrorBody{Code: CodeBodyTooLarge, Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		}
		return nil, &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("read request: %v", err)}
	}
	return data, nil
}

// readSized is io.ReadAll starting from a buffer of n+1 bytes: a body of
// n bytes fills it, and the read that finds EOF has its spare byte, so
// the buffer is never regrown. A longer body still reads in full.
func readSized(r io.Reader, n int64) ([]byte, error) {
	b := make([]byte, 0, n+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// unmarshalStrict decodes a request body, rejecting unknown fields.
func unmarshalStrict(data []byte, v any) *ErrorBody {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf("decode request: %v", err)}
	}
	return nil
}

// decode parses the JSON body under the body-size cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req any) *ErrorBody {
	data, errBody := s.readBody(w, r)
	if errBody != nil {
		return errBody
	}
	return unmarshalStrict(data, req)
}

// writeEncoded is writeJSON for a 200 body with a schedule document,
// which encode (JobView.encode or ScheduleResponse.encode) streams
// verbatim.
func writeEncoded(w http.ResponseWriter, encode func(io.Writer) error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if encode(w) == nil {
		io.WriteString(w, "\n") //nolint:errcheck // the response is already committed
	}
}

// writeJSON writes v as compact JSON, so a document embedded as raw JSON
// (ScheduleResponse.Schedule) reaches the client as the library's exact
// bytes; schedctl pretty-prints what it shows.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the response is already committed
}

// retryAfterSeconds is the Retry-After hint attached to every 503: the
// conditions behind them (full queue, drain, store hiccup) clear on the
// order of a second, so clients should pause rather than hammer.
const retryAfterSeconds = 1

func writeError(w http.ResponseWriter, e *ErrorBody) {
	status := httpStatus(e.Code)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, errorEnvelope{Error: e})
}

// flushCopy copies src to w, flushing after every chunk so streamed
// responses (SSE) propagate immediately instead of sitting in a buffer.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// writeSSE emits one SSE status event with its id. The data line is
// compact JSON — newlines would break the line-oriented framing — and
// streams the schedule document verbatim (see JobView.encode).
func writeSSE(w io.Writer, id int, v *JobView) error {
	if _, err := fmt.Fprintf(w, "id: %d\nevent: status\ndata: ", id); err != nil {
		return err
	}
	if err := v.encode(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n\n")
	return err
}

package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dbp/internal/item"
	"dbp/internal/serve"
)

// Target is the transport a load run drives ops through. Arrive and
// Depart must be safe for concurrent use; Stats is polled once per
// phase boundary. The nil time pointer convention matches
// serve.Dispatcher: nil means "stamp with the service clock".
type Target interface {
	Arrive(id item.ID, size float64, sizes []float64, t *float64) error
	Depart(id item.ID, t *float64) error
	Stats() (serve.Stats, error)
	// Name reports the transport kind for the results file.
	Name() string
}

// apiError is a request the target's service refused: the stable code
// of its serve.Class, plus the HTTP status (also for the wire
// transport). Transport-level failures (refused connections, timeouts)
// use code "transport" and status 0.
type apiError struct {
	Status int
	Code   string
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("load: %s (%d): %s", e.Code, e.Status, e.Msg)
}

// classify buckets a target error by its stable code: API rejections
// keep the code the server assigned, in-process dispatcher errors get
// their serve.Class's code, so every target produces the one error
// taxonomy in the results file.
func classify(err error) string {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return serve.ClassOf(err).Code()
}

// InProc drives a serve.Dispatcher directly — no sockets, no JSON.
// This measures the allocation core itself (shard routing, locking,
// stream work) and needs no daemon.
type InProc struct {
	D *serve.Dispatcher
}

func (p *InProc) Name() string { return "inproc" }

func (p *InProc) Arrive(id item.ID, size float64, sizes []float64, t *float64) error {
	_, err := p.D.Arrive(id, size, sizes, t)
	return err
}

func (p *InProc) Depart(id item.ID, t *float64) error {
	_, err := p.D.Depart(id, t)
	return err
}

func (p *InProc) Stats() (serve.Stats, error) { return p.D.Stats(), nil }

// HTTPTarget drives a running dbpserved over its JSON API, one
// keep-alive connection per concurrent client.
type HTTPTarget struct {
	base   string
	client *http.Client
}

// NewHTTP builds an HTTP target for the given base URL
// ("http://host:port", no trailing slash). maxConns caps idle
// keep-alive connections and should be >= the number of load clients,
// or connection churn dominates the measurement.
func NewHTTP(base string, maxConns int, timeout time.Duration) *HTTPTarget {
	if maxConns < 1 {
		maxConns = 1
	}
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPTarget{
		base:   base,
		client: &http.Client{Transport: tr, Timeout: timeout},
	}
}

func (h *HTTPTarget) Name() string { return "http" }

// post issues one JSON POST and folds any non-2xx reply into apiError.
func (h *HTTPTarget) post(path string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return &apiError{Code: "transport", Msg: err.Error()}
	}
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return &apiError{Code: "transport", Msg: err.Error()}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	var er serve.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); err != nil || er.Code == "" {
		er.Code = fmt.Sprintf("http_%d", resp.StatusCode)
	}
	return &apiError{Status: resp.StatusCode, Code: er.Code, Msg: er.Error}
}

func (h *HTTPTarget) Arrive(id item.ID, size float64, sizes []float64, t *float64) error {
	return h.post("/v1/arrive", serve.ArriveRequest{ID: id, Size: size, Sizes: sizes, Time: t})
}

func (h *HTTPTarget) Depart(id item.ID, t *float64) error {
	return h.post("/v1/depart", serve.DepartRequest{ID: id, Time: t})
}

func (h *HTTPTarget) Stats() (serve.Stats, error) {
	resp, err := h.client.Get(h.base + "/v1/stats")
	if err != nil {
		return serve.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Stats{}, fmt.Errorf("load: GET /v1/stats: %s", resp.Status)
	}
	var s serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return serve.Stats{}, fmt.Errorf("load: GET /v1/stats: %w", err)
	}
	return s, nil
}

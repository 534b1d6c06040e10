package load

import (
	"errors"

	"dbp/internal/item"
	"dbp/internal/serve"
	"dbp/internal/wire"
)

// WireTarget drives a running dbpserved over the binary batched wire
// protocol (internal/wire): a pool of persistent connections whose
// writers coalesce concurrent ops into batch frames. Op-level
// rejections surface as APIError with the same stable codes as the
// HTTP transport, so the two produce identical error taxonomies in
// the results file.
type WireTarget struct {
	c   *wire.Client
	cfg TransportConfig
}

// NewWire dials the wire endpoint ("host:port") with the given client
// tuning. The caller should Close the target when the run is over.
func NewWire(addr string, opts wire.Options) (*WireTarget, error) {
	c, err := wire.Dial(addr, opts)
	if err != nil {
		return nil, err
	}
	return &WireTarget{c: c, cfg: TransportConfig{Conns: opts.Conns}}, nil
}

func (w *WireTarget) Name() string { return "wire" }

// Config reports the effective client tuning for the results file.
func (w *WireTarget) Config() *TransportConfig { cfg := w.cfg; return &cfg }

func (w *WireTarget) Arrive(id item.ID, size float64, sizes []float64, t *float64) error {
	_, err := w.c.Arrive(id, size, sizes, t)
	return wireErr(err)
}

func (w *WireTarget) Depart(id item.ID, t *float64) error {
	_, err := w.c.Depart(id, t)
	return wireErr(err)
}

func (w *WireTarget) Stats() (serve.Stats, error) { return w.c.Stats() }

// Close retires the connection pool.
func (w *WireTarget) Close() error { return w.c.Close() }

// wireErr folds a wire client error into the harness's APIError
// taxonomy: op rejections keep their class's code and HTTP status,
// transport-level failures (goaway, dead connections) become code
// "transport".
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	var oe *wire.OpError
	if errors.As(err, &oe) {
		return &APIError{Status: oe.Status.HTTPStatus(), Code: oe.Status.Code(), Msg: oe.Error()}
	}
	return &APIError{Code: "transport", Msg: err.Error()}
}

package proto

import (
	"errors"

	"fix/internal/engine"
)

// Status mirrors the real wire-status type.
//
//ermia:exhaustive
type Status uint16

const (
	// StatusOK is handled out of line by the mapping functions.
	//
	//ermia:status special success maps to nil
	StatusOK Status = iota
	StatusConflict
	StatusNoClass
	StatusExtra
	StatusLonely // want `status constant StatusLonely appears in no statusTable row`
	_            // ok: a retired value kept reserved maps to nothing and needs no case
)

// ErrLocal never crosses the wire and says so... except it does not.
var ErrLocal = errors.New("local") // want `sentinel ErrLocal has no proto status`

var statusTable = []struct {
	status Status
	err    error
}{
	{StatusConflict, engine.ErrConflict},
	{StatusNoClass, engine.ErrNoClass},
	{StatusConflict, engine.ErrFine},  // want `statusTable is not a bijection: status StatusConflict already mapped`
	{StatusExtra, engine.ErrConflict}, // want `statusTable is not a bijection: sentinel ErrConflict already mapped`
}

func describe(s Status) string {
	switch s { // want `switch over exhaustive type Status misses StatusLonely and has no default`
	case StatusOK:
		return "ok"
	case StatusConflict, StatusNoClass, StatusExtra:
		return "mapped"
	}
	return ""
}

func describeDefault(s Status) string {
	switch s { // ok: a default arm waives exhaustiveness
	case StatusOK:
		return "ok"
	default:
		return "other"
	}
}

var _ = statusTable
var _ = describe
var _ = describeDefault

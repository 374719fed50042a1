package proto

// Status mirrors the real wire-status type.
//
//ermia:exhaustive
type Status uint16

const (
	StatusOK Status = iota
	StatusConflict
	StatusNoClass
	StatusExtra
	StatusLonely
	_ // ok: a retired value kept reserved needs no case
)

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

var _ = describe
var _ = describeDefault

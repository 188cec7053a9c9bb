package cm

// The fixed round counts, for the external tests.
const (
	PolkaMaxRounds  = polkaMaxRounds
	TimestampRounds = timestampRounds
)

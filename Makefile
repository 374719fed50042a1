GO ?= go

.PHONY: build test check race vet ermia-vet fuzz bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo-specific static-analysis suite (internal/vet): epochguard,
# errclass, hotalloc, lockorder, nodeterminism, txnlifecycle. The wire
# registry is frozen by internal/proto's TestWireRegistry instead.
ermia-vet:
	$(GO) run ./cmd/ermia-vet ./...

race:
	$(GO) test -race -short -count=1 ./internal/core/ ./internal/index/ ./internal/mvcc/ ./internal/wal/ ./internal/epoch/

# The full local gate: vet + ermia-vet + build + test + short race pass.
check:
	./scripts/check.sh

# Run each fuzz target briefly beyond its seed corpus.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/codec/ -run=^$$ -fuzz=FuzzDecodeKey -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/ -run=^$$ -fuzz=FuzzDecodeTuple -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -run=^$$ -fuzz=^FuzzRecover$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal/ -run=^$$ -fuzz=^FuzzTail$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=^FuzzRecover$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/silo/ -run=^$$ -fuzz=^FuzzRecover$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run=^$$ -fuzz=^FuzzCheckpointBlob$$ -fuzztime=$(FUZZTIME)

bench:
	$(GO) test -bench=. -benchtime=1x ./...

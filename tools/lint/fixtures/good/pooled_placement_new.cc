// Known-good: storage comes from a pool and objects are placement-new'd
// into it; the pool takes the block back.
#include <cstddef>
#include <cstdint>
#include <new>

struct Pool {
  void* Allocate(std::size_t bytes);
  void Deallocate(void* block, std::size_t bytes);
};

struct Header {
  uint32_t capacity;
  uint32_t count;
};

Header* NewHeader(Pool& pool, uint32_t capacity) {
  return new (pool.Allocate(sizeof(Header) + capacity * sizeof(uint32_t)))
      Header{capacity, 0};
}

void FreeHeader(Pool& pool, Header* header) {
  pool.Deallocate(header, sizeof(Header) + header->capacity * sizeof(uint32_t));
}

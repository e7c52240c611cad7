#include "compress/compressor.h"

#include <cmath>

#include "common/check.h"

namespace pr {

Compressor::Compressor(CompressionKind kind) : kind_(kind) {
  if (kind != CompressionKind::kNone) codec_ = MakeCodec(kind);
}

void Compressor::AttachMetrics(MetricsShard* metrics) {
  if (metrics == nullptr) return;
  bytes_in_ = metrics->GetCounter("compress.bytes_in");
  bytes_out_ = metrics->GetCounter("compress.bytes_out");
  ratio_ = metrics->GetGauge("compress.ratio");
}

void Compressor::EnsureResidual(size_t end) {
  if (residual_.size() < end) residual_.resize(end, 0.0f);
}

Buffer Compressor::EncodeImpl(const float* range, size_t offset, size_t len,
                              float* publish) {
  PR_CHECK(enabled());
  PR_CHECK(range != nullptr || len == 0);
  EnsureResidual(offset + len);
  Buffer blob = codec_->EncodeWithFeedback(range, residual_.data() + offset,
                                           len, publish);
  total_in_ += static_cast<double>(len * sizeof(float));
  total_out_ += static_cast<double>(blob.size() * sizeof(float));
  if (bytes_in_ != nullptr) {
    bytes_in_->Increment(static_cast<double>(len * sizeof(float)));
    bytes_out_->Increment(static_cast<double>(blob.size() * sizeof(float)));
    if (total_out_ > 0.0) ratio_->Set(total_in_ / total_out_);
  }
  return blob;
}

Buffer Compressor::EncodeRange(const float* range, size_t offset, size_t len) {
  return EncodeImpl(range, offset, len, nullptr);
}

Buffer Compressor::EncodeRangePublish(float* range, size_t offset,
                                      size_t len) {
  return EncodeImpl(range, offset, len, range);
}

Status Compressor::Decode(const Buffer& blob, std::vector<float>* out) const {
  PR_CHECK(enabled());
  return codec_->Decode(blob, out);
}

Status Compressor::DecodeInto(const Buffer& blob, float* out,
                              size_t len) const {
  return DecodeAccumulate(blob, nullptr, out, len);
}

Status Compressor::DecodeAccumulate(const Buffer& blob, const float* add,
                                    float* out, size_t len) const {
  PR_CHECK(enabled());
  return codec_->DecodeAccumulate(blob, add, out, len);
}

size_t Compressor::EncodedBytes(size_t n) const {
  return EncodedBlobBytes(kind_, n);
}

double Compressor::ResidualL1() const {
  double sum = 0.0;
  for (float r : residual_) sum += std::abs(r);
  return sum;
}

}  // namespace pr

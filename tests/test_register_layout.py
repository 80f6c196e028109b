"""A register layout is its qubit count: data qubits, one backup per data qubit, photon modes."""

from mfsim.statevec import RegisterLayout


def test_register_layout_is_its_qubit_count():
    layout = RegisterLayout.build(2, with_backup=True)
    assert layout == RegisterLayout(6) != RegisterLayout.build(2)
    assert layout.n_qubits == 6
    assert RegisterLayout.build(3, n_photons=0).n_qubits == 3
